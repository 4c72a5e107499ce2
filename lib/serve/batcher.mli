(** Request batching: the daemon's execution core.

    A batch is the set of requests queued while the previous batch was
    being served.  [execute] groups them by target tree — so a delta's
    single [O(#changed log R)] recombine, and the hot tree it updates,
    serve every query queued behind it instead of each query re-solving
    — and fans the per-tree groups out across an {!Crossbar_engine.Pool}
    (per-tree worker sharding: requests for one tree run sequentially in
    arrival order; distinct trees run concurrently).

    Determinism: responses come back index-aligned with the request
    array, and each group's work depends only on the registry state and
    its own requests, so a batch's responses are bit-identical to
    serving the same requests one at a time — the property the serve
    bench gates at 1 ulp. *)

type outcome = {
  responses : Crossbar_engine.Json.t array;
      (** element [i] answers request [i] *)
  shutdown : bool;  (** a [shutdown] request was present *)
}

val execute :
  ?domains:int ->
  registry:Registry.t ->
  telemetry:Crossbar_engine.Telemetry.t ->
  Protocol.request array ->
  outcome
(** Serve one batch.  Every request — including failures, [stats] and
    [shutdown] — produces exactly one response and one telemetry record
    whose [wall_seconds] is the request's service time on the monotonic
    clock ({!Crossbar_engine.Clock}).  Solver errors
    ([Invalid_argument], [Failure]) and unknown trees become [ok:false]
    responses, never exceptions: a malformed query must not take the
    daemon down.  [domains] bounds the pool
    (default {!Crossbar_engine.Pool.recommended_domains}).  The tree
    groups run on the process's persistent worker domains, so a batch
    spawns no domain and every batch reuses the same per-domain
    arenas.

    Once every group has finished, the registry's capacity-evicted
    trees are drained via {!Registry.recycle_evicted} — the end of a
    batch is the daemon's quiescent point. *)
