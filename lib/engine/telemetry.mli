(** Per-solve telemetry collected by the sweep engine.

    Every solve the engine performs is recorded: what ran, how long it
    took on the wall clock, how much lattice work it implied, how many
    Section 6 rescale chunks the convolution would have needed, and
    whether the result came from the cache.  Records render to the JSON
    schema documented in DESIGN.md ("Telemetry schema") and consumed by
    [bench/main.exe --json]. *)

type solve = {
  label : string;  (** caller-supplied point label *)
  algorithm : string;  (** {!Crossbar.Solver.algorithm_to_string} *)
  wall_seconds : float;
      (** wall time of this [find_or_solve] call; near zero on hits *)
  lattice_cells : int;
  rescales : int;
  tree_combines : int;
      (** pairwise factor-tree combines the solve performed
          ({!Crossbar.Solver.solution}[.tree_combines]); [0] on cache
          hits and for non-convolution algorithms *)
  banded_combines : int;
      (** how many of those combines ran the banded parallel kernel
          ({!Crossbar.Solver.solution}[.banded_combines]) *)
  from_cache : bool;
  from_incremental : bool;
      (** the solve reused factor-tree nodes from the previous sweep
          point ({!Crossbar.Convolution.solve_delta}) *)
}

type t

val create : unit -> t

val record : t -> solve -> unit
(** Append a record (domain-safe).  A negative [wall_seconds] — which a
    non-monotonic time source could produce — is clamped to [0.] before
    it is stored, so totals and percentiles never move backwards; use
    {!Clock} to take wall-time deltas and the clamp never fires. *)

val solves : t -> solve list
(** Records in the order they were appended. *)

val count : t -> int

val total_wall_seconds : t -> float
(** Sum of [wall_seconds] over all records. *)

val wall_percentiles : t -> float * float * float
(** [(p50, p95, max)] of per-solve [wall_seconds], nearest-rank over all
    records; [(0., 0., 0.)] when empty. *)

val solve_to_json : solve -> Json.t

val to_json : ?cache:Cache.t -> ?domains:int -> ?records:bool -> t -> Json.t
(** The full collector as one JSON object: aggregate counters, optional
    cache hit/miss statistics and pool width, then the per-solve record
    list.  All fields derive from a {e single} locked snapshot of the
    record list, so the emitted [solves] count, totals, percentiles and
    [records] always describe the same instant even while other domains
    keep recording.  [~records:false] leaves the record list out — the
    same object minus its last field, without serialising a record —
    for summaries polled from a long-running process. *)
