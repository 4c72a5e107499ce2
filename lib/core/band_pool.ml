(* Persistent band-worker pool.

   [combine_banded] used to pay a full [Domain.spawn] round-trip
   (~0.8 ms best case, several ms under load on this class of machine)
   for every banded combine, which forced the banding threshold far
   above where the tiled kernel stops scaling.  This module keeps a
   lazily-started, process-wide set of worker domains parked on
   per-worker mailboxes so a band fan-out costs one mutex/condvar
   hand-off per worker (~0.1 ms round-trip cold, microseconds once the
   completion spin window hides the wake latency) instead of a domain
   spawn.

   Dispatch protocol, per worker:
   - the dispatcher (holding the global [dispatch_lock]) writes the job
     closure and band index into the worker's mailbox under the
     mailbox lock, flips its state to [Armed] and signals;
   - the worker wakes, flips the state back to [Idle], runs the job
     outside the lock, records any exception, publishes completion
     through the [done_] atomic, and signals in case the dispatcher
     already gave up spinning and parked on the condvar;
   - the dispatcher runs band 0 itself, then collects each worker by
     spinning briefly on [done_] (bands are work-balanced, so the skew
     is small) before falling back to the condvar.

   Failure semantics match [Engine.Pool.run]: every band is awaited
   before anything is raised (workers may still be writing into the
   caller's buffers), then the caller's own exception wins, else the
   lowest-banded worker failure is re-raised.

   Nested or concurrent dispatch (a second domain — or a band job
   itself — calling [run] while a fan-out is in flight) falls back to
   running the bands inline in band order, which is bit-identical
   because bands write disjoint rows. *)

(* Sentinel stored in [failed] between jobs so the field never needs an
   option box on the hot dispatch path. *)
exception No_failure

type state = Idle | Armed | Quit

type mailbox = {
  lock : Mutex.t;
  signal : Condition.t;
  mutable state : state; (* protected by [lock] *)
  done_ : bool Atomic.t; (* completion flag for the last armed job *)
  mutable job : int -> unit; (* written under [lock] before [Armed] *)
  mutable band : int; (* ditto *)
  mutable failed : exn; (* written by the worker before [done_] *)
}

let ignore_band (_ : int) = ()

(* Serialises dispatch and pool growth/shutdown.  Held for the whole
   fan-out so a concurrent [run] sees [try_lock] fail and degrades to
   the inline sequential path instead of racing for mailboxes. *)
let dispatch_lock = Mutex.create ()

let workers : (mailbox * unit Domain.t) array Atomic.t = Atomic.make [||]

(* Multi-band dispatches so far, the count the idle alarm saw last, and
   the alarm itself (all written under [dispatch_lock]). *)
let dispatches = Atomic.make 0
let dispatches_seen = Atomic.make (-1)
let idle_alarm : Gc.alarm option Atomic.t = Atomic.make None

let rec worker_wait mb =
  match mb.state with
  | Armed ->
      mb.state <- Idle;
      false
  | Quit -> true
  | Idle ->
      Condition.wait mb.signal mb.lock;
      worker_wait mb

let rec worker_loop mb =
  Mutex.lock mb.lock;
  let quit = worker_wait mb in
  Mutex.unlock mb.lock;
  if not quit then begin
    (match mb.job mb.band with () -> () | exception e -> mb.failed <- e);
    (* Drop the closure so the operands it captures are not kept live
       until the next dispatch. *)
    mb.job <- ignore_band;
    Atomic.set mb.done_ true;
    (* Wake the dispatcher if it stopped spinning and parked. *)
    Mutex.lock mb.lock;
    Condition.signal mb.signal;
    Mutex.unlock mb.lock;
    worker_loop mb
  end

let spawn_worker () =
  let mb =
    (* lint: alloc=mb -- one mailbox per worker, once per high-water mark *)
    {
      lock = Mutex.create ();
      signal = Condition.create ();
      state = Idle;
      done_ = Atomic.make true;
      job = ignore_band;
      band = 0;
      failed = No_failure;
    }
  in
  (* The worker and the dispatcher hand the mutable mailbox back and
     forth under its own lock (job/band/state) and the [done_] atomic
     (completion, failure visibility); no field is ever written
     concurrently.  The pair and worker thunk below are built once per
     pool worker, never per dispatch. *)
  (* lint: guarded=mb alloc=tuple,closure -- hand-off under mb.lock *)
  (mb, Domain.spawn (fun () -> worker_loop mb))

let quit_worker (mb, _) =
  Mutex.lock mb.lock;
  mb.state <- Quit;
  Condition.signal mb.signal;
  Mutex.unlock mb.lock

let join_worker (_, d) = Domain.join d

let drop_alarm () =
  Option.iter Gc.delete_alarm (Atomic.get idle_alarm);
  Atomic.set idle_alarm None

(* Quit every worker and drop the idle alarm; returns the domains to
   join once [dispatch_lock] is released.  Caller holds the lock, so no
   run is in flight: every worker is idle or about to re-check its
   state. *)
let stop_workers () =
  let ws = Atomic.get workers in
  Atomic.set workers [||];
  Array.iter quit_worker ws;
  drop_alarm ();
  ws

let rec is_worker ws self i =
  i < Array.length ws
  && (Domain.get_id (snd ws.(i)) = self || is_worker ws self (i + 1))

(* Parked workers are not free: while one exists, every minor collection
   of any domain is a stop-the-world rendezvous that the parked domain
   must wake for, about 70-80 us of extra CPU per collection on a
   2-vCPU host.  A process that allocates between rare fan-outs (a sweep
   rebuilding its points) would pay that on every collection, so
   workers that served no fan-out during a whole major GC cycle retire,
   and the next fan-out starts them again.  The alarm runs on the domain
   that started the pool, or on whichever domain adopts its finalisers
   once that domain exits.  It leaves a busy pool alone.  A worker that
   adopted it cannot join itself, so it drops the alarm, and the next
   fan-out arms a new one on its dispatching domain. *)
let retire_if_idle () =
  if Mutex.try_lock dispatch_lock then begin
    let count = Atomic.get dispatches in
    let retired =
      if is_worker (Atomic.get workers) (Domain.self ()) 0 then begin
        drop_alarm ();
        [||]
      end
      else if count = Atomic.get dispatches_seen then stop_workers ()
      else begin
        Atomic.set dispatches_seen count;
        [||]
      end
    in
    Mutex.unlock dispatch_lock;
    Array.iter join_worker retired
  end

(* Grow the pool to at least [wanted] workers, arming the idle alarm
   if none is armed.  Caller holds [dispatch_lock]. *)
let ensure wanted =
  if Option.is_none (Atomic.get idle_alarm) then begin
    Atomic.set dispatches_seen (-1);
    Atomic.set idle_alarm (Some (Gc.create_alarm retire_if_idle))
  end;
  let current = Atomic.get workers in
  let have = Array.length current in
  if have >= wanted then current
  else begin
    let grown =
      (* lint: alloc=grown,closure -- pool growth, once per high-water mark *)
      Array.init wanted (fun i ->
          if i < have then current.(i) else spawn_worker ())
    in
    Atomic.set workers grown;
    grown
  end

let arm mb f band =
  mb.failed <- No_failure;
  Atomic.set mb.done_ false;
  Mutex.lock mb.lock;
  mb.job <- f;
  mb.band <- band;
  mb.state <- Armed;
  Condition.signal mb.signal;
  Mutex.unlock mb.lock

(* Bands are triangular-work-balanced, so the skew between the caller's
   band 0 and a worker band is a small fraction of the band itself:
   a short spin almost always observes completion without a syscall.
   Oversubscribed runs (more bands than cores) stop burning the core
   after [spin_budget] relaxations and park on the condvar instead. *)
let spin_budget = 10_000

(* Top-level (not a closure over the mailbox) so awaiting allocates
   nothing on the dispatch path. *)
let rec await_spin mb n =
  if Atomic.get mb.done_ then ()
  else if n > 0 then begin
    Domain.cpu_relax ();
    await_spin mb (n - 1)
  end
  else begin
    Mutex.lock mb.lock;
    while not (Atomic.get mb.done_) do
      Condition.wait mb.signal mb.lock
    done;
    Mutex.unlock mb.lock
  end

let await mb = await_spin mb spin_budget

(* Await workers 1..bands-1 in band order, keeping the first failure
   (threaded as an argument: no ref cell on the dispatch path). *)
let rec collect ws band bands worst =
  if band >= bands then worst
  else begin
    let mb, _ = ws.(band - 1) in
    await mb;
    let worst = if worst == No_failure then mb.failed else worst in
    collect ws (band + 1) bands worst
  end

let run_inline bands f =
  for i = 0 to bands - 1 do
    f i
  done

let run ~bands f =
  if bands < 1 then invalid_arg "Band_pool.run: bands must be >= 1"
  else if bands = 1 then f 0
  else if not (Mutex.try_lock dispatch_lock) then
    (* A fan-out is already in flight (nested banding, or another
       domain's combine): run the bands inline, in band order —
       bit-identical, since bands write disjoint rows. *)
    run_inline bands f
  else begin
    match ensure (bands - 1) with
    | exception e ->
        Mutex.unlock dispatch_lock;
        raise e
    | ws ->
        Atomic.incr dispatches;
        for band = 1 to bands - 1 do
          let mb, _ = ws.(band - 1) in
          arm mb f band
        done;
        let caller_failed =
          match f 0 with () -> No_failure | exception e -> e
        in
        let worker_failed = collect ws 1 bands No_failure in
        Mutex.unlock dispatch_lock;
        if caller_failed != No_failure then raise caller_failed
        else if worker_failed != No_failure then raise worker_failed
  end

let size () = Array.length (Atomic.get workers)

let shutdown () =
  Mutex.lock dispatch_lock;
  let ws = stop_workers () in
  Mutex.unlock dispatch_lock;
  Array.iter join_worker ws
