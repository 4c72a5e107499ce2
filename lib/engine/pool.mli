(** Deterministic fan-out over the process's persistent worker domains.

    [run] evaluates a pure task function over indices [0 .. tasks-1]
    and returns the results in index order, so the output is
    bit-identical regardless of how many domains execute it (work
    stealing only changes {e which} domain computes an index, never
    what is computed).  The workers are {!Crossbar.Band_pool}'s parked
    domains, one band per worker with the calling domain as band 0:
    no call spawns or joins a domain, and every call reuses the same
    minor heaps and per-domain ([Domain.DLS]) arenas.  When only one
    worker is available — [Domain.recommended_domain_count () = 1], an
    explicit [~domains:1], or a single task — the tasks run
    sequentially in the calling domain.  So does a nested or concurrent
    call (a task calling [run], or a second domain calling it while a
    fan-out is in flight), with the same results. *)

val recommended_domains : unit -> int
(** Pool width used when [?domains] is omitted:
    [Domain.recommended_domain_count ()] — the runtime's estimate of
    usefully parallel domains on this machine — overridable with the
    [CROSSBAR_DOMAINS] environment variable.
    @raise Invalid_argument if [CROSSBAR_DOMAINS] is set but is not an
    integer [>= 1]: a daemon misconfigured at deploy time must fail
    loudly, not run at a silently substituted width. *)

val run : ?domains:int -> tasks:int -> (int -> 'a) -> 'a array
(** [run ~tasks f] returns [[| f 0; ...; f (tasks-1) |]].  [f] must be
    safe to call from multiple domains (the solver layers are pure).  If
    any task raises, the first exception observed is re-raised in the
    caller after every worker has finished, and remaining un-started
    tasks are abandoned; the pool serves later calls normally.
    @raise Invalid_argument if [tasks < 0] or [domains < 1]. *)
