(** Persistent worker pool for intra-combine row banding and for
    [Engine.Pool]'s task fan-outs.

    A lazily-started, process-wide set of worker domains parked on
    per-worker mailboxes (mutex + condvar hand-off, atomic completion
    flag).  Dispatching a band costs one lock/signal per worker —
    roughly an order of magnitude less than a [Domain.spawn] round-trip
    — which is what lets {!Convolution}'s banding threshold sit near
    the point where the tiled kernel stops scaling instead of far above
    it, and what lets the serve batcher and the sweep engine fan out
    per batch without paying for fresh domains, minor heaps and
    per-domain arenas each time.

    The pool is shared by the whole process and grows on demand to the
    largest [bands - 1] ever requested.  Parked workers still cost
    something: every minor collection of any domain must wake them for
    its stop-the-world rendezvous.  So workers that served no fan-out
    during a whole major GC cycle retire (a [Gc] alarm checks), and the
    next fan-out starts them again.  Dispatch is serialised: a
    {!run} that finds another fan-out in flight (a band calling {!run},
    a combine banding inside an [Engine.Pool] task, or a concurrent
    domain) executes its bands inline in band order, which is
    observationally identical because band functions must write
    disjoint state. *)

val run : bands:int -> (int -> unit) -> unit
(** [run ~bands f] evaluates [f 0 .. f (bands - 1)], band 0 on the
    calling domain and the rest on pool workers, and returns when every
    band has finished.  [f] must confine its writes per band (bands
    run concurrently and in any order).

    If any band raises, every remaining band is still awaited before
    the exception is re-raised — the caller's own exception first,
    else the lowest-banded worker's.  The pool survives failures and
    serves subsequent runs normally.

    [bands = 1] runs [f 0] inline without touching the pool.  Raises
    [Invalid_argument] if [bands < 1]. *)

val size : unit -> int
(** Number of worker domains currently parked in the pool (0 until the
    first multi-band {!run}, then the high-water mark of [bands - 1]
    requested so far, until {!shutdown} or until the workers retire
    after a major GC cycle without a fan-out). *)

val shutdown : unit -> unit
(** Quit and join every pool worker.  Subsequent {!run}s re-warm the
    pool transparently; idle processes (or tests asserting domain
    hygiene) can call this to drop the parked domains. *)
