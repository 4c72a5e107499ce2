(* Benchmark and reproduction harness.

   Part 1 prints, for every table AND figure in the paper's evaluation,
   the series/rows this implementation produces (side by side with the
   published numbers where the paper prints them).  The figure and
   Table 2 sweeps run through the parallel sweep engine
   (Crossbar_engine), which also collects per-solve telemetry.

   Part 2 measures the sweep engine's incremental convolution path
   against the full-solve path on single-class load sweeps (the paper's
   Figures 2-5 regime) at R in {2, 4, 8} classes, plus simulator
   replication throughput across domains.  Full and incremental solves
   are required to agree within 1 ulp on every measure — any wider gap
   is a hard failure (exit 1), which CI relies on.

   Part 3 times the computational contributions with Bechamel: one
   Test.make per paper table/figure (the cost of regenerating it), plus an
   ablation of Algorithm 1 vs Algorithm 2 vs brute-force enumeration
   across switch sizes — the complexity claims of paper Section 5.

     dune exec bench/main.exe                         # everything
     dune exec bench/main.exe -- --fast               # skip Bechamel
     dune exec bench/main.exe -- --smoke --json b.json # CI: sweeps + gate only

   --json PATH writes a machine-readable perf snapshot (schema
   "crossbar-bench/1", documented in DESIGN.md) and re-parses the file
   before exiting, failing loudly if it is malformed. *)

open Bechamel
module Paper = Crossbar_workloads.Paper
module Report = Crossbar_workloads.Report
module Engine = Crossbar_engine
module Json = Crossbar_engine.Json
module Sim = Crossbar_sim.Simulator
module Measures = Crossbar.Measures
module Prob = Crossbar_numerics.Prob

let line title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ---------- part 1: reproduction ---------- *)

let reproduce ?telemetry () =
  line "Reproduction of every figure and table (measured | paper)";
  Report.print_all ?telemetry Format.std_formatter;
  Format.print_flush ()

(* ---------- part 2: incremental sweep + replication benchmarks ---------- *)

(* Single-class load sweep at R classes: R-1 fixed background classes
   (mixed Poisson/Pascal, mixed bandwidths) and a swept Poisson class
   LAST, so the incremental path re-convolves exactly one factor and
   reuses the R-1 prefix products. *)
let sweep_model ~classes ~size load =
  let background =
    List.init (classes - 1) (fun i ->
        let name = Printf.sprintf "bg%d" i in
        if i mod 3 = 1 then
          Crossbar.Traffic.pascal ~name ~bandwidth:2 ~alpha:0.04 ~beta:0.01
            ~service_rate:1.0 ()
        else
          Crossbar.Traffic.poisson ~name
            ~bandwidth:((i mod 2) + 1)
            ~rate:0.06 ~service_rate:1.0 ())
  in
  let swept =
    Crossbar.Traffic.poisson ~name:"swept" ~bandwidth:1 ~rate:load
      ~service_rate:1.0 ()
  in
  Crossbar.Model.square ~size ~classes:(background @ [ swept ])

let sweep_points ~classes ~size ~count =
  List.init count (fun i ->
      let load = 0.05 +. (0.01 *. float_of_int i) in
      Engine.Sweep.point ~algorithm:Crossbar.Solver.Convolution
        ~label:(Printf.sprintf "R=%d load=%.2f" classes load)
        (sweep_model ~classes ~size load))

(* Wall time of one sweep over [points], best of [iters] runs with a
   fresh cache each time (a shared cache would turn every re-run into
   pure hits).  [~domains:1] pins both paths to one domain so the
   comparison isolates the solve algorithm, not pool scheduling. *)
let time_sweep ~incremental ~iters points =
  let best = ref Float.infinity in
  for _ = 1 to iters do
    let cache = Engine.Cache.create () in
    let started = Engine.Clock.now () in
    ignore
      (Engine.Sweep.run ~domains:1 ~cache ~incremental points
        : Engine.Sweep.outcome array);
    let elapsed = Engine.Clock.elapsed_since started in
    if elapsed < !best then best := elapsed
  done;
  !best

(* Largest ulp distance between the two outcome arrays across every
   reported measure and log G.  The incremental path is constructed to
   be bit-identical, so this should always come back 0; CI fails the
   job above 1. *)
let sweep_ulp_gap full inc =
  let worst = ref 0 in
  let note a b =
    let d = Prob.ulp_distance a b in
    if d > !worst then worst := d
  in
  Array.iter2
    (fun (a : Engine.Sweep.outcome) (b : Engine.Sweep.outcome) ->
      note a.Engine.Sweep.solution.Crossbar.Solver.log_normalization
        b.Engine.Sweep.solution.Crossbar.Solver.log_normalization;
      let ma = Engine.Sweep.measures a and mb = Engine.Sweep.measures b in
      note ma.Measures.busy_ports mb.Measures.busy_ports;
      note ma.Measures.input_utilization mb.Measures.input_utilization;
      note ma.Measures.output_utilization mb.Measures.output_utilization;
      Array.iter2
        (fun (ca : Measures.per_class) (cb : Measures.per_class) ->
          note ca.Measures.offered_load cb.Measures.offered_load;
          note ca.Measures.non_blocking cb.Measures.non_blocking;
          note ca.Measures.blocking cb.Measures.blocking;
          note ca.Measures.concurrency cb.Measures.concurrency;
          note ca.Measures.throughput cb.Measures.throughput)
        ma.Measures.per_class mb.Measures.per_class)
    full inc;
  !worst

let sweep_bench ~smoke ~telemetry ~classes =
  let size = 48 and count = 50 in
  let iters = if smoke then 3 else 10 in
  let points = sweep_points ~classes ~size ~count in
  let full =
    Engine.Sweep.run ~domains:1 ~cache:(Engine.Cache.create ()) ~telemetry
      points
  in
  let inc =
    Engine.Sweep.run ~domains:1
      ~cache:(Engine.Cache.create ())
      ~telemetry ~incremental:true points
  in
  let incremental_solves =
    Array.fold_left
      (fun acc o -> if o.Engine.Sweep.from_incremental then acc + 1 else acc)
      0 inc
  in
  let max_ulp = sweep_ulp_gap full inc in
  let full_seconds = time_sweep ~incremental:false ~iters points in
  let incremental_seconds = time_sweep ~incremental:true ~iters points in
  let speedup = full_seconds /. incremental_seconds in
  Printf.printf
    "R=%d size=%d points=%d  full %.5fs  incremental %.5fs  speedup %.2fx  \
     (%d/%d incremental solves, max ulp gap %d)\n"
    classes size count full_seconds incremental_seconds speedup
    incremental_solves count max_ulp;
  let json =
    Json.Assoc
      [
        ("classes", Json.Int classes);
        ("size", Json.Int size);
        ("points", Json.Int count);
        ("iterations", Json.Int iters);
        ("full_seconds", Json.Float full_seconds);
        ("incremental_seconds", Json.Float incremental_seconds);
        ("speedup", Json.Float speedup);
        ("incremental_solves", Json.Int incremental_solves);
        ("max_ulp", Json.Int max_ulp);
      ]
  in
  (json, max_ulp)

let sweep_benches ~smoke ~telemetry =
  line "Sweep engine: full vs incremental single-class load sweeps";
  let results =
    List.map (fun classes -> sweep_bench ~smoke ~telemetry ~classes) [ 2; 4; 8 ]
  in
  (Json.List (List.map fst results),
   List.fold_left (fun acc (_, ulp) -> max acc ulp) 0 results)

let replication_bench ~smoke =
  line "Simulator: replication throughput across domains";
  let model =
    Crossbar.Model.square ~size:6
      ~classes:
        [
          Crossbar.Traffic.poisson ~name:"p" ~bandwidth:1 ~rate:0.4
            ~service_rate:1.0 ();
          Crossbar.Traffic.pascal ~name:"q" ~bandwidth:2 ~alpha:0.1 ~beta:0.05
            ~service_rate:1.0 ();
        ]
  in
  let horizon = if smoke then 2e3 else 2e4 in
  let config =
    { (Sim.default_config model) with horizon; warmup = horizon /. 20.;
      batches = 5 }
  in
  let replications = 8 in
  let time domains =
    let started = Engine.Clock.now () in
    let result = Sim.run_replications ~domains ~replications config in
    (Engine.Clock.elapsed_since started, result)
  in
  let sequential_seconds, sequential = time 1 in
  let domains = Engine.Pool.recommended_domains () in
  let parallel_seconds, parallel = time domains in
  (* Domain-count independence is part of the CI gate: per-seed results
     must be bit-identical however the replications were scheduled. *)
  let max_ulp = ref 0 in
  let note (a : Sim.estimate array) (b : Sim.estimate array) =
    Array.iter2
      (fun (x : Sim.estimate) (y : Sim.estimate) ->
        let d =
          max
            (Prob.ulp_distance x.Sim.point y.Sim.point)
            (Prob.ulp_distance x.Sim.halfwidth y.Sim.halfwidth)
        in
        if d > !max_ulp then max_ulp := d)
      a b
  in
  note sequential.Sim.rep_time_congestion parallel.Sim.rep_time_congestion;
  note sequential.Sim.rep_call_congestion parallel.Sim.rep_call_congestion;
  note sequential.Sim.rep_concurrency parallel.Sim.rep_concurrency;
  let per_second seconds = float_of_int replications /. seconds in
  Printf.printf
    "%d replications, horizon %g: 1 domain %.3fs (%.1f rep/s), %d domains \
     %.3fs (%.1f rep/s), max ulp gap %d\n"
    replications horizon sequential_seconds
    (per_second sequential_seconds)
    domains parallel_seconds
    (per_second parallel_seconds)
    !max_ulp;
  let json =
    Json.Assoc
      [
        ("replications", Json.Int replications);
        ("horizon", Json.Float horizon);
        ("sequential_seconds", Json.Float sequential_seconds);
        ("parallel_seconds", Json.Float parallel_seconds);
        ("domains", Json.Int domains);
        ("sequential_reps_per_second", Json.Float (per_second sequential_seconds));
        ("parallel_reps_per_second", Json.Float (per_second parallel_seconds));
        ("max_ulp", Json.Int !max_ulp);
      ]
  in
  (json, !max_ulp)

(* ---------- part 2b: factor-tree benchmarks ---------- *)

(* R-class mixed model for the all-classes gradient: distinct loads per
   class and bandwidths cycling 1-3 so several distinct reduced switches
   exist for the per-class re-solve path to pay for. *)
let gradient_model ~classes ~size =
  let members =
    List.init classes (fun i ->
        let name = Printf.sprintf "g%d" i in
        if i mod 3 = 1 then
          Crossbar.Traffic.pascal ~name ~bandwidth:2 ~alpha:0.05 ~beta:0.01
            ~service_rate:1.0 ()
        else
          Crossbar.Traffic.poisson ~name
            ~bandwidth:((i mod 3) + 1)
            ~rate:(0.04 +. (0.01 *. float_of_int i))
            ~service_rate:1.0 ())
  in
  Crossbar.Model.square ~size ~classes:members

(* The historical path: one full solve for W(N) plus one reduced-switch
   solve per distinct bandwidth — up to R+1 independent solves
   (deduplicated by bandwidth here, which only narrows the measured
   gap in the tree path's favour being understated, never overstated). *)
let shadow_costs_by_resolve model ~weights =
  let total m =
    Measures.revenue
      (Crossbar.Solver.solve ~algorithm:Crossbar.Solver.Convolution m)
      ~weights
  in
  let w0 = total model in
  let memo = Hashtbl.create 4 in
  Array.init (Crossbar.Model.num_classes model) (fun r ->
      let a = Crossbar.Model.bandwidth model r in
      if
        Crossbar.Model.inputs model - a < 1
        || Crossbar.Model.outputs model - a < 1
      then w0
      else
        let reduced =
          match Hashtbl.find_opt memo a with
          | Some v -> v
          | None ->
              let v = total (Crossbar.Revenue.reduced_model model ~ports:a) in
              Hashtbl.add memo a v;
              v
        in
        w0 -. reduced)

let time_best ~iters f =
  let best = ref Float.infinity in
  for _ = 1 to iters do
    let started = Engine.Clock.now () in
    ignore (f () : float array);
    let elapsed = Engine.Clock.elapsed_since started in
    if elapsed < !best then best := elapsed
  done;
  !best

(* All-classes revenue gradient: R+1 independent solves versus one
   factor-tree solve whose diagonal already holds every reduced switch
   (Revenue.shadow_costs).  The two paths compute the same quantity
   through different roundings, so they are compared with a relative
   tolerance, not ulp. *)
let gradient_bench ~smoke ~classes =
  let size = 32 in
  (* Individual runs are tens of microseconds; a generous best-of count
     costs nothing and keeps the speedup ratio stable on noisy CI
     runners (the 2x acceptance floor is gated in smoke mode).  The
     smoke count must match the one BENCH_baseline.json was recorded
     with: best-of-N is biased downward in N, so measuring with more
     draws than the baseline systematically undershoots it. *)
  let iters = if smoke then 15 else 30 in
  let model = gradient_model ~classes ~size in
  let weights = Array.init classes (fun r -> 1.0 /. float_of_int (r + 1)) in
  let resolve = shadow_costs_by_resolve model ~weights in
  let tree = Crossbar.Revenue.shadow_costs model ~weights in
  let max_gap = ref 0. in
  Array.iteri
    (fun r d ->
      let gap = Float.abs (d -. tree.(r)) in
      if gap > !max_gap then max_gap := gap)
    resolve;
  let scale =
    Array.fold_left (fun acc d -> Float.max acc (Float.abs d)) 1. resolve
  in
  let rel_gap = !max_gap /. scale in
  let resolve_seconds =
    time_best ~iters (fun () -> shadow_costs_by_resolve model ~weights)
  in
  let tree_seconds =
    time_best ~iters (fun () -> Crossbar.Revenue.shadow_costs model ~weights)
  in
  let speedup = resolve_seconds /. tree_seconds in
  Printf.printf
    "R=%d size=%d  re-solve %.5fs  factor-tree %.5fs  speedup %.2fx  (max \
     rel gap %.3g)\n"
    classes size resolve_seconds tree_seconds speedup rel_gap;
  let json =
    Json.Assoc
      [
        ("classes", Json.Int classes);
        ("size", Json.Int size);
        ("iterations", Json.Int iters);
        ("resolve_seconds", Json.Float resolve_seconds);
        ("tree_seconds", Json.Float tree_seconds);
        ("speedup", Json.Float speedup);
        ("max_rel_gap", Json.Float rel_gap);
      ]
  in
  (json, speedup, rel_gap)

(* Multi-class delta sweep: classes 0 and 1 move jointly at every point,
   which the pre-tree chains (consecutive single-class deltas only)
   could not chain at all; the factor tree recombines the two changed
   leaves' shared root path. *)
let multi_delta_model ~classes ~size load =
  let members =
    List.init classes (fun i ->
        let name = Printf.sprintf "md%d" i in
        if i = 0 then
          Crossbar.Traffic.poisson ~name ~bandwidth:1 ~rate:load
            ~service_rate:1.0 ()
        else if i = 1 then
          Crossbar.Traffic.poisson ~name ~bandwidth:2 ~rate:(0.8 *. load)
            ~service_rate:1.0 ()
        else if i mod 3 = 1 then
          Crossbar.Traffic.pascal ~name ~bandwidth:2 ~alpha:0.04 ~beta:0.01
            ~service_rate:1.0 ()
        else
          Crossbar.Traffic.poisson ~name
            ~bandwidth:((i mod 2) + 1)
            ~rate:0.06 ~service_rate:1.0 ())
  in
  Crossbar.Model.square ~size ~classes:members

let multi_delta_points ~classes ~size ~count =
  List.init count (fun i ->
      let load = 0.05 +. (0.01 *. float_of_int i) in
      Engine.Sweep.point ~algorithm:Crossbar.Solver.Convolution
        ~label:(Printf.sprintf "R=%d multi load=%.2f" classes load)
        (multi_delta_model ~classes ~size load))

let multi_delta_bench ~smoke ~telemetry ~classes =
  let size = 48 and count = 50 in
  let iters = if smoke then 3 else 10 in
  let points = multi_delta_points ~classes ~size ~count in
  let full =
    Engine.Sweep.run ~domains:1 ~cache:(Engine.Cache.create ()) ~telemetry
      points
  in
  let inc =
    Engine.Sweep.run ~domains:1
      ~cache:(Engine.Cache.create ())
      ~telemetry ~incremental:true points
  in
  let incremental_solves =
    Array.fold_left
      (fun acc o -> if o.Engine.Sweep.from_incremental then acc + 1 else acc)
      0 inc
  in
  let max_ulp = sweep_ulp_gap full inc in
  let full_seconds = time_sweep ~incremental:false ~iters points in
  let incremental_seconds = time_sweep ~incremental:true ~iters points in
  let speedup = full_seconds /. incremental_seconds in
  Printf.printf
    "R=%d size=%d points=%d  full %.5fs  incremental %.5fs  speedup %.2fx  \
     (%d/%d incremental solves, max ulp gap %d)\n"
    classes size count full_seconds incremental_seconds speedup
    incremental_solves count max_ulp;
  let json =
    Json.Assoc
      [
        ("classes", Json.Int classes);
        ("size", Json.Int size);
        ("points", Json.Int count);
        ("iterations", Json.Int iters);
        ("swept_classes", Json.List [ Json.Int 0; Json.Int 1 ]);
        ("full_seconds", Json.Float full_seconds);
        ("incremental_seconds", Json.Float incremental_seconds);
        ("speedup", Json.Float speedup);
        ("incremental_solves", Json.Int incremental_solves);
        ("max_ulp", Json.Int max_ulp);
      ]
  in
  (json, max_ulp)

let factor_tree_benches ~smoke ~telemetry =
  line "Factor tree: all-classes revenue gradient vs per-class re-solve";
  let gradients = List.map (fun classes -> gradient_bench ~smoke ~classes) [ 2; 4; 8 ] in
  line "Factor tree: multi-class delta sweeps (classes 0 and 1 jointly)";
  let deltas =
    List.map
      (fun classes -> multi_delta_bench ~smoke ~telemetry ~classes)
      [ 2; 4; 8 ]
  in
  let json =
    Json.Assoc
      [
        ("gradient", Json.List (List.map (fun (j, _, _) -> j) gradients));
        ("multi_delta", Json.List (List.map fst deltas));
      ]
  in
  let worst_ulp = List.fold_left (fun acc (_, ulp) -> max acc ulp) 0 deltas in
  let worst_rel_gap =
    List.fold_left (fun acc (_, _, gap) -> Float.max acc gap) 0. gradients
  in
  let gradient8_speedup =
    List.fold_left2
      (fun acc classes (_, speedup, _) -> if classes = 8 then speedup else acc)
      0. [ 2; 4; 8 ] gradients
  in
  (json, worst_ulp, worst_rel_gap, gradient8_speedup)

(* ---------- part 2c: serve daemon benchmarks ---------- *)

module Protocol = Crossbar_serve.Protocol
module Batcher = Crossbar_serve.Batcher
module Registry = Crossbar_serve.Registry

(* A serve workload against one hot tree: an initial solve, then
   [rounds] cycles of delta / blocking / shadow_costs / admit — the
   mixed query stream of an admission controller tracking a drifting
   load.  Returns the request array, per request the model state the
   stateless baseline must re-solve at that point, and the revenue
   weights. *)
let serve_workload ~classes ~size ~rounds =
  let model0 = multi_delta_model ~classes ~size 0.05 in
  let weights = Array.init classes (fun r -> 1.0 /. float_of_int (r + 1)) in
  let requests = ref [] and states = ref [] and current = ref model0 in
  let next_id = ref 0 in
  let push query =
    requests := { Protocol.id = Json.Int !next_id; query } :: !requests;
    states := !current :: !states;
    incr next_id
  in
  push (Protocol.Solve { tree = "bench"; model = model0 });
  for i = 1 to rounds do
    let alpha = 0.05 +. (0.002 *. float_of_int i) in
    current :=
      Crossbar.Model.map_class !current 0 (fun traffic ->
          Crossbar.Traffic.with_alpha traffic alpha);
    push
      (Protocol.Delta
         {
           tree = "bench";
           changes =
             [ { Protocol.class_index = 0; alpha = Some alpha; beta = None } ];
         });
    push (Protocol.Blocking { tree = "bench" });
    push (Protocol.Shadow_costs { tree = "bench"; weights });
    push
      (Protocol.Admit { tree = "bench"; class_index = i mod classes; weights })
  done;
  ( Array.of_list (List.rev !requests),
    Array.of_list (List.rev !states),
    weights )

(* The stateless baseline: no resident tree, so every query pays a full
   factor-tree solve of its model state before the read.  (Shadow-cost
   queries skip the extra revenue fold the daemon also does, which only
   understates the daemon's advantage.) *)
let serve_resolve_all ~requests ~states ~weights =
  Array.iteri
    (fun i (request : Protocol.request) ->
      let model = states.(i) in
      let solved = Crossbar.Convolution.solve model in
      match request.Protocol.query with
      | Protocol.Solve _ | Protocol.Delta _ | Protocol.Blocking _ ->
          ignore (Crossbar.Convolution.measures solved : Measures.t)
      | Protocol.Shadow_costs _ | Protocol.Admit _ ->
          ignore
            (Crossbar.Revenue.shadow_costs ~solved model ~weights
              : float array)
      | Protocol.Stats | Protocol.Shutdown -> ())
    requests

let time_serve ~iters f =
  let best = ref Float.infinity in
  for _ = 1 to iters do
    let started = Engine.Clock.now () in
    f ();
    let elapsed = Engine.Clock.elapsed_since started in
    if elapsed < !best then best := elapsed
  done;
  !best

(* Every Float leaf of a response, in serialization order; two responses
   built by the same code path pair up positionally. *)
let rec float_leaves acc = function
  | Json.Float f -> f :: acc
  | Json.Null | Json.Bool _ | Json.Int _ | Json.String _ -> acc
  | Json.List items -> List.fold_left float_leaves acc items
  | Json.Assoc fields ->
      List.fold_left (fun acc (_, value) -> float_leaves acc value) acc fields

let response_ulp_gap a b =
  let xs = List.rev (float_leaves [] a) in
  let ys = List.rev (float_leaves [] b) in
  if List.length xs <> List.length ys then max_int
  else
    List.fold_left2 (fun acc x y -> max acc (Prob.ulp_distance x y)) 0 xs ys

let serve_bench ~smoke ~classes =
  let size = 32 in
  let rounds = if smoke then 10 else 30 in
  let iters = if smoke then 5 else 10 in
  let requests, states, weights = serve_workload ~classes ~size ~rounds in
  let n = Array.length requests in
  (* One instrumented batched run: its telemetry feeds the reported
     per-query latency percentiles. *)
  let telemetry = Engine.Telemetry.create () in
  let registry = Registry.create () in
  let outcome = Batcher.execute ~domains:1 ~registry ~telemetry requests in
  (* Batching equivalence: replaying the same stream one request at a
     time through a fresh registry must produce byte-identical response
     lines (stricter than the 1-ulp gate). *)
  let replay_registry = Registry.create () in
  let replay_telemetry = Engine.Telemetry.create () in
  let replay_ok = ref true in
  Array.iteri
    (fun i request ->
      let single =
        Batcher.execute ~domains:1 ~registry:replay_registry
          ~telemetry:replay_telemetry [| request |]
      in
      if
        not
          (String.equal
             (Json.to_string outcome.Batcher.responses.(i))
             (Json.to_string single.Batcher.responses.(0)))
      then replay_ok := false)
    requests;
  (* Hot-tree answers vs fresh solves: every solve/delta response must
     match a from-scratch solve of the same model state within 1 ulp. *)
  let max_ulp = ref 0 in
  Array.iteri
    (fun i (request : Protocol.request) ->
      match request.Protocol.query with
      | Protocol.Solve _ | Protocol.Delta _ ->
          let fresh =
            Batcher.execute ~domains:1 ~registry:(Registry.create ())
              ~telemetry:(Engine.Telemetry.create ())
              [|
                {
                  Protocol.id = request.Protocol.id;
                  query = Protocol.Solve { tree = "bench"; model = states.(i) };
                };
              |]
          in
          let pick name json =
            match Json.member name json with Some v -> v | None -> Json.Null
          in
          let gap response reference =
            max
              (response_ulp_gap (pick "log_g" response)
                 (pick "log_g" reference))
              (response_ulp_gap (pick "measures" response)
                 (pick "measures" reference))
          in
          let d =
            gap outcome.Batcher.responses.(i) fresh.Batcher.responses.(0)
          in
          if d > !max_ulp then max_ulp := d
      | _ -> ())
    requests;
  let resolve_seconds =
    time_serve ~iters (fun () -> serve_resolve_all ~requests ~states ~weights)
  in
  let batched_seconds =
    time_serve ~iters (fun () ->
        ignore
          (Batcher.execute ~domains:1 ~registry:(Registry.create ())
             ~telemetry:(Engine.Telemetry.create ())
             requests
            : Batcher.outcome))
  in
  let speedup = resolve_seconds /. batched_seconds in
  let qps = float_of_int n /. batched_seconds in
  let p50, p95, _ = Engine.Telemetry.wall_percentiles telemetry in
  Printf.printf
    "R=%d size=%d requests=%d  re-solve %.5fs  batched %.5fs  speedup %.2fx  \
     (%.0f q/s, p50 %.2gus p95 %.2gus, max ulp gap %d%s)\n"
    classes size n resolve_seconds batched_seconds speedup qps (p50 *. 1e6)
    (p95 *. 1e6) !max_ulp
    (if !replay_ok then "" else ", REPLAY MISMATCH");
  let json =
    Json.Assoc
      [
        ("classes", Json.Int classes);
        ("size", Json.Int size);
        ("requests", Json.Int n);
        ("iterations", Json.Int iters);
        ("resolve_seconds", Json.Float resolve_seconds);
        ("batched_seconds", Json.Float batched_seconds);
        ("speedup", Json.Float speedup);
        ("queries_per_second", Json.Float qps);
        ("wall_seconds_p50", Json.Float p50);
        ("wall_seconds_p95", Json.Float p95);
        ("max_ulp", Json.Int !max_ulp);
        ("replay_identical", Json.Bool !replay_ok);
      ]
  in
  (json, !max_ulp, !replay_ok, speedup)

let serve_benches ~smoke =
  line "Serve daemon: batched hot-tree serving vs per-query re-solve";
  let results =
    List.map (fun classes -> serve_bench ~smoke ~classes) [ 2; 4; 8 ]
  in
  let json =
    Json.Assoc [ ("load", Json.List (List.map (fun (j, _, _, _) -> j) results)) ]
  in
  let worst_ulp =
    List.fold_left (fun acc (_, ulp, _, _) -> max acc ulp) 0 results
  in
  let replay_ok = List.for_all (fun (_, _, ok, _) -> ok) results in
  let speedup8 =
    List.fold_left2
      (fun acc classes (_, _, _, speedup) ->
        if classes = 8 then speedup else acc)
      0. [ 2; 4; 8 ] results
  in
  (json, worst_ulp, replay_ok, speedup8)

(* ---------- part 2c: JSON writer ---------- *)

(* Median wall time of [samples] runs of [f]. *)
let median_seconds ~samples f =
  let windows =
    List.init samples (fun _ ->
        let started = Engine.Clock.now () in
        f ();
        Engine.Clock.elapsed_since started)
  in
  (* lint: disable=R7 — total order for sorting, not a tolerance test *)
  List.nth (List.sort Float.compare windows) (samples / 2)

(* What the daemon's serialise stage costs: ns per [Json.to_string] of
   one float literal, over every float the serve workload's responses
   carry, and us per [Protocol.response_to_line] over those responses,
   per R.  Reported, not gated: absolute times say nothing portable.
   Each figure is the median of [samples] windows. *)
let json_benches ~smoke =
  line "JSON writer: float literals and serve responses";
  (* Windows of 20+ ms: shorter ones read the host's noise. *)
  let runs = if smoke then 100 else 500 in
  let samples = 5 in
  let mixes =
    List.map
      (fun classes ->
        let requests, _, _ = serve_workload ~classes ~size:32 ~rounds:10 in
        let outcome =
          Batcher.execute ~domains:1 ~registry:(Registry.create ())
            ~telemetry:(Engine.Telemetry.create ()) requests
        in
        (classes, outcome.Batcher.responses))
      [ 2; 4; 8 ]
  in
  let floats =
    Array.of_list
      (List.concat_map
         (fun (_, responses) ->
           Array.fold_left (fun acc r -> float_leaves acc r) [] responses)
         mixes)
  in
  let literals = Array.map (fun f -> Json.Float f) floats in
  let seconds =
    median_seconds ~samples (fun () ->
        for _ = 1 to runs do
          Array.iter (fun j -> ignore (Json.to_string j : string)) literals
        done)
  in
  let ns_per_float =
    seconds /. float_of_int (runs * Array.length literals) *. 1e9
  in
  Printf.printf "float literal: %d floats x %d runs  %.1f ns/float\n"
    (Array.length literals) runs ns_per_float;
  let response_rows =
    List.map
      (fun (classes, responses) ->
        let n = Array.length responses in
        let bytes =
          Array.fold_left
            (fun acc r -> acc + String.length (Protocol.response_to_line r))
            0 responses
        in
        let seconds =
          median_seconds ~samples (fun () ->
              for _ = 1 to runs do
                Array.iter
                  (fun r -> ignore (Protocol.response_to_line r : string))
                  responses
              done)
        in
        let us = seconds /. float_of_int (runs * n) *. 1e6 in
        let bytes_per_response = float_of_int bytes /. float_of_int n in
        Printf.printf "R=%d responses=%d  %.0f B/response  %.2f us/response\n"
          classes n bytes_per_response us;
        Json.Assoc
          [
            ("classes", Json.Int classes);
            ("responses", Json.Int n);
            ("bytes_per_response", Json.Float bytes_per_response);
            ("us_per_response", Json.Float us);
          ])
      mixes
  in
  Json.Assoc
    [
      ( "float",
        Json.List
          [
            Json.Assoc
              [
                ("floats", Json.Int (Array.length literals));
                ("runs", Json.Int runs);
                ("samples", Json.Int samples);
                ("ns_per_float", Json.Float ns_per_float);
              ];
          ] );
      ("response", Json.List response_rows);
    ]

(* ---------- part 2d: combine kernel microbenchmarks ---------- *)

module Conv = Crossbar.Convolution
module Lattice = Crossbar.Lattice

(* Times the separable kernel directly against [combine_naive] (the
   reference combine, which builds its own O(cap^2) weight grids on
   every call — part of what the kernel no longer pays), sweeps the
   tile size, and
   measures the banded parallel dispatch against the same context
   pinned to one band.  Results go back to the calling domain's arena
   after every rep, so the steady state exercises the recycled
   zero-allocation path the R11 lint stage pins. *)

let kernel_operand ~cap seed =
  let l = Lattice.create ~capacity:cap () in
  for u = 0 to cap do
    let h = (((u + 1) * seed * 2654435761) lsr 7) land 0xffff in
    Lattice.set l u (0.05 +. (0.9 *. (float_of_int h /. 65536.)))
  done;
  l

let time_combine ~iters ~reps f =
  let best = ref Float.infinity in
  (* Settle the major heap first: the reference combine allocates a
     fresh profile per call, and letting its garbage collect inside a
     competitor's timed window would skew the ratio. *)
  Gc.full_major ();
  for _ = 1 to iters do
    let started = Engine.Clock.now () in
    for _ = 1 to reps do ignore (f () : Lattice.t) done;
    let elapsed = Engine.Clock.elapsed_since started in
    if elapsed < !best then best := elapsed
  done;
  !best /. float_of_int reps

(* Rep counts sized so each timed run covers a few tens of millions of
   kernel terms regardless of capacity. *)
let combine_reps ~smoke ~cap =
  let budget = if smoke then 40_000_000 else 120_000_000 in
  max 3 (budget / ((cap + 1) * (cap + 1)))

(* The row key [classes] lines up with the other sections' R for the
   baseline gate; the measured combine runs at capacity 32R, spanning
   the small root combines of an R=2 tree up to well past the default
   tile edge at R=8. *)
let combine_kernel_row ~smoke ~classes =
  let cap = 32 * classes in
  let ctx = Conv.context_of ~band_domains:1 ~inputs:cap ~outputs:cap () in
  let arena = Conv.arena ctx in
  let a = kernel_operand ~cap 3 and b = kernel_operand ~cap 5 in
  let iters = if smoke then 5 else 8 in
  let reps = combine_reps ~smoke ~cap in
  let naive_seconds =
    time_combine ~iters ~reps (fun () -> Conv.combine_naive ctx a b)
  in
  let tiled_seconds =
    time_combine ~iters ~reps (fun () ->
        let r = Conv.combine ctx a b in
        Conv.Arena.release arena r;
        r)
  in
  let speedup = naive_seconds /. tiled_seconds in
  Printf.printf
    "R=%d cap=%d  reference %.2fus  tiled %.2fus  speedup %.2fx\n" classes
    cap (1e6 *. naive_seconds) (1e6 *. tiled_seconds) speedup;
  let json =
    Json.Assoc
      [
        ("classes", Json.Int classes);
        ("capacity", Json.Int cap);
        ("iterations", Json.Int iters);
        ("reps", Json.Int reps);
        ("naive_seconds", Json.Float naive_seconds);
        ("tiled_seconds", Json.Float tiled_seconds);
        ("speedup", Json.Float speedup);
      ]
  in
  (json, speedup)

let tile_sweep_rows ~smoke =
  let cap = 256 in
  let a = kernel_operand ~cap 7 and b = kernel_operand ~cap 11 in
  let iters = if smoke then 3 else 6 in
  let reps = combine_reps ~smoke ~cap in
  Json.List
    (List.map
       (fun tile ->
         let ctx =
           Conv.context_of ~tile ~band_domains:1 ~inputs:cap ~outputs:cap ()
         in
         let arena = Conv.arena ctx in
         let seconds =
           time_combine ~iters ~reps (fun () ->
               let r = Conv.combine ctx a b in
               Conv.Arena.release arena r;
               r)
         in
         Printf.printf "tile=%-4d cap=%d  %.2fus per combine\n" tile cap
           (1e6 *. seconds);
         Json.Assoc
           [
             ("tile", Json.Int tile);
             ("capacity", Json.Int cap);
             ("seconds", Json.Float seconds);
           ])
       [ 16; 32; 64; 128 ])

(* Banded dispatch at a capacity past the default threshold (R=8 maps
   to 3072), where each band carries milliseconds of kernel work.  The
   sequential
   reference is the same tiled kernel pinned to one band, so the ratio
   isolates the banding itself. *)
let parallel_kernel_row ~smoke ~classes =
  let cap = 384 * classes in
  let domains = Crossbar.Domains.recommended () in
  let banded_ctx =
    Conv.context_of ~combine_threshold:1 ~band_domains:domains ~inputs:cap
      ~outputs:cap ()
  in
  let sequential_ctx =
    Conv.context_of ~band_domains:1 ~inputs:cap ~outputs:cap ()
  in
  let a = kernel_operand ~cap 13 and b = kernel_operand ~cap 17 in
  let iters = if smoke then 3 else 5 in
  let reps = if smoke then 3 else 8 in
  let run ctx =
    let arena = Conv.arena ctx in
    time_combine ~iters ~reps (fun () ->
        let r = Conv.combine ctx a b in
        Conv.Arena.release arena r;
        r)
  in
  let sequential_seconds = run sequential_ctx in
  let banded_seconds = run banded_ctx in
  let speedup = sequential_seconds /. banded_seconds in
  Printf.printf
    "R=%d cap=%d domains=%d  sequential %.2fms  banded %.2fms  speedup \
     %.2fx\n"
    classes cap domains
    (1e3 *. sequential_seconds)
    (1e3 *. banded_seconds)
    speedup;
  let json =
    Json.Assoc
      [
        ("classes", Json.Int classes);
        ("capacity", Json.Int cap);
        ("domains", Json.Int domains);
        ("iterations", Json.Int iters);
        ("reps", Json.Int reps);
        ("sequential_seconds", Json.Float sequential_seconds);
        ("banded_seconds", Json.Float banded_seconds);
        ("speedup", Json.Float speedup);
      ]
  in
  (json, speedup)

let kernel_benches ~smoke =
  line "Combine kernel: tiled Bigarray kernel vs reference combine";
  let combines =
    List.map (fun classes -> combine_kernel_row ~smoke ~classes) [ 2; 4; 8 ]
  in
  line "Combine kernel: tile-size sweep";
  let tile_sweep = tile_sweep_rows ~smoke in
  line "Combine kernel: banded parallel dispatch";
  let parallels =
    List.map (fun classes -> parallel_kernel_row ~smoke ~classes) [ 8 ]
  in
  let json =
    Json.Assoc
      [
        ("combine", Json.List (List.map fst combines));
        ("tile_sweep", tile_sweep);
        ("parallel", Json.List (List.map fst parallels));
      ]
  in
  let at_8 rows =
    List.fold_left2
      (fun acc classes (_, speedup) -> if classes = 8 then speedup else acc)
      0. rows
  in
  let combine8 = at_8 [ 2; 4; 8 ] combines in
  let parallel8 = at_8 [ 8 ] parallels in
  (json, combine8, parallel8)

(* ---------- part 2e: engine pool dispatch ---------- *)

(* Absolute cost of one empty fan-out through [Engine.Pool.run] at two
   workers — the hand-off every daemon batch and sweep pays on top of
   its tasks.  Reported, not gated: an absolute time says nothing
   portable, but the row shows at a glance whether a batch still pays
   for domains rather than for answers.  The median of [samples]
   windows of [runs] calls each, after a warm-up that starts the
   workers. *)
let pool_dispatch_row ~smoke =
  let runs = if smoke then 2_000 else 20_000 in
  let samples = 5 in
  let empty () =
    ignore (Engine.Pool.run ~domains:2 ~tasks:2 ignore : unit array)
  in
  for _ = 1 to 100 do
    empty ()
  done;
  let seconds =
    median_seconds ~samples (fun () ->
        for _ = 1 to runs do
          empty ()
        done)
  in
  let us_per_run = seconds /. float_of_int runs *. 1e6 in
  line "Engine pool: empty Pool.run ~domains:2 ~tasks:2";
  Printf.printf "%d runs  %.5fs  %.2f us/run  (median of %d windows)\n" runs
    seconds us_per_run samples;
  Json.Assoc
    [
      ( "dispatch",
        Json.List
          [
            Json.Assoc
              [
                ("domains", Json.Int 2);
                ("tasks", Json.Int 2);
                ("runs", Json.Int runs);
                ("samples", Json.Int samples);
                ("seconds", Json.Float seconds);
                ("us_per_run", Json.Float us_per_run);
              ];
          ] );
    ]

(* ---------- part 3: Bechamel timing ---------- *)

let whole_figure ?(sizes = Paper.sizes) series () =
  List.iter
    (fun s ->
      List.iter
        (fun n ->
          ignore (Crossbar.Solver.solve (s.Paper.model_of_size n)))
        sizes)
    series

let whole_table2 () =
  List.iter
    (fun set ->
      List.iter
        (fun n -> ignore (Crossbar.Solver.solve (Paper.table2_model set n)))
        Paper.table2_sizes)
    Paper.table2_sets

let solve_with algorithm model () =
  ignore (Crossbar.Solver.solve ~algorithm model)

let tests =
  let reproduction =
    Test.make_grouped ~name:"reproduce"
      [
        Test.make ~name:"figure1" (Staged.stage (whole_figure Paper.figure1));
        Test.make ~name:"figure2" (Staged.stage (whole_figure Paper.figure2));
        Test.make ~name:"figure3" (Staged.stage (whole_figure Paper.figure3));
        Test.make ~name:"figure4"
          (Staged.stage (whole_figure ~sizes:Paper.figure4_sizes Paper.figure4));
        Test.make ~name:"table2" (Staged.stage whole_table2);
      ]
  in
  let algorithms =
    (* The Section 5 ablation: both recurrences are O(N1 N2 R); the brute
       force is exponential and only feasible at toy sizes. *)
    let mixed n =
      Crossbar.Model.square ~size:n
        ~classes:
          [
            Crossbar.Traffic.poisson ~name:"p" ~bandwidth:1 ~rate:0.01
              ~service_rate:1.0 ();
            Crossbar.Traffic.pascal ~name:"q" ~bandwidth:2 ~alpha:0.01
              ~beta:0.004 ~service_rate:1.0 ();
          ]
    in
    Test.make_grouped ~name:"algorithms"
      ([
         Test.make ~name:"brute N=8"
           (Staged.stage (solve_with Crossbar.Solver.Brute_force (mixed 8)));
       ]
      @ List.concat_map
          (fun n ->
            [
              Test.make
                ~name:(Printf.sprintf "algorithm1 N=%d" n)
                (Staged.stage (solve_with Crossbar.Solver.Convolution (mixed n)));
              Test.make
                ~name:(Printf.sprintf "algorithm2 N=%d" n)
                (Staged.stage (solve_with Crossbar.Solver.Mean_value (mixed n)));
            ])
          [ 16; 64; 128 ])
  in
  let multistage =
    (* Cost of the multi-stage extension's fixed points (analysis only;
       the simulator referee is exercised in the reproduction section). *)
    let topology = Crossbar_network.Topology.create ~ports:256 ~fanout:4 in
    Test.make_grouped ~name:"multistage"
      [
        Test.make ~name:"link fixed point N=256"
          (Staged.stage (fun () ->
               ignore
                 (Crossbar_network.Analysis.link_fixed_point topology
                    ~offered:0.2 ~service_rate:1.)));
        Test.make ~name:"switch markov N=256"
          (Staged.stage (fun () ->
               ignore
                 (Crossbar_network.Analysis.switch_markov topology
                    ~offered:0.2 ~service_rate:1.)));
      ]
  in
  Test.make_grouped ~name:"crossbar" [ reproduction; algorithms; multistage ]

(* Runs the Bechamel suite; returns (name, nanoseconds-per-run) rows. *)
let benchmark () =
  line "Bechamel timings (monotonic clock, OLS fit)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols (List.hd instances) raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "%-40s %s\n" "benchmark" "time per run";
  List.filter_map
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ nanoseconds ] ->
          let pretty =
            let second = 1e9 and millisecond = 1e6 and microsecond = 1e3 in
            if nanoseconds > second then
              Printf.sprintf "%.3f s" (nanoseconds /. second)
            else if nanoseconds > millisecond then
              Printf.sprintf "%.3f ms" (nanoseconds /. millisecond)
            else if nanoseconds > microsecond then
              Printf.sprintf "%.3f us" (nanoseconds /. microsecond)
            else Printf.sprintf "%.0f ns" nanoseconds
          in
          Printf.printf "%-40s %s\n" name pretty;
          Some (name, nanoseconds)
      | _ ->
          Printf.printf "%-40s (no estimate)\n" name;
          None)
    rows

(* ---------- JSON perf snapshot ---------- *)

let snapshot ~mode ~telemetry ~sweeps ~factor_tree ~serve ~json ~kernel ~pool
    ~replications ~timings =
  let solves = Engine.Telemetry.solves telemetry in
  let cache_hits =
    List.length (List.filter (fun s -> s.Engine.Telemetry.from_cache) solves)
  in
  let cache_misses = List.length solves - cache_hits in
  let hit_rate =
    if solves = [] then 0.
    else float_of_int cache_hits /. float_of_int (List.length solves)
  in
  Json.Assoc
    [
      ("schema", Json.String "crossbar-bench/1");
      ("generated_at_epoch_seconds", Json.Float (Unix.time ()));
      ("mode", Json.String mode);
      ("domains", Json.Int (Engine.Pool.recommended_domains ()));
      ("sweeps", sweeps);
      ("factor_tree", factor_tree);
      ("serve", serve);
      ("json", json);
      ("kernel", kernel);
      ("pool", pool);
      ("replications", replications);
      ( "cache",
        Json.Assoc
          [
            ("hits", Json.Int cache_hits);
            ("misses", Json.Int cache_misses);
            ("hit_rate", Json.Float hit_rate);
          ] );
      ("telemetry", Engine.Telemetry.to_json telemetry);
      ( "timings",
        Json.List
          (List.map
             (fun (name, nanoseconds) ->
               Json.Assoc
                 [
                   ("name", Json.String name);
                   ("nanoseconds_per_run", Json.Float nanoseconds);
                 ])
             timings) );
    ]

(* Re-read and re-parse the snapshot we just wrote; a malformed or
   structurally incomplete file is a hard error, not a warning. *)
let validate_snapshot path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.of_string text with
  | Error message ->
      Printf.eprintf "FATAL: %s is not valid JSON: %s\n" path message;
      exit 1
  | Ok json ->
      let required =
        [
          "schema"; "mode"; "domains"; "cache"; "telemetry"; "sweeps";
          "factor_tree"; "serve"; "json"; "kernel"; "pool"; "replications";
        ]
      in
      List.iter
        (fun field ->
          if Json.member field json = None then begin
            Printf.eprintf "FATAL: %s is missing field %S\n" path field;
            exit 1
          end)
        required;
      (match Json.member "schema" json with
      | Some (Json.String "crossbar-bench/1") -> ()
      | _ ->
          Printf.eprintf "FATAL: %s has an unexpected schema tag\n" path;
          exit 1);
      json

let write_snapshot path json =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let ppf = Format.formatter_of_out_channel oc in
      Format.fprintf ppf "%a@." Json.pp json)

(* ---------- driver ---------- *)

let parse_path_flag flag argv =
  let n = Array.length argv in
  let rec scan i =
    if i >= n then None
    else if String.equal argv.(i) flag then
      if i + 1 < n then Some argv.(i + 1)
      else begin
        Printf.eprintf "FATAL: %s requires a path argument\n" flag;
        exit 1
      end
    else scan (i + 1)
  in
  scan 1

let parse_json_path argv = parse_path_flag "--json" argv
let parse_baseline_path argv = parse_path_flag "--baseline" argv

(* ---------- baseline regression gate ---------- *)

(* Wall times are machine-dependent, so the committed baseline is
   compared on *speedup ratios* (dimensionless): the fresh run must keep
   at least 85% of the baseline's recorded speedup for every
   factor-tree, serve and kernel section, else the run fails (the CI
   regression gate). *)
let speedup_rows ~top ~key section json =
  match Json.member top json with
  | None -> []
  | Some ft -> (
      match Json.member section ft with
      | Some (Json.List rows) ->
          List.filter_map
            (fun row ->
              match (Json.member key row, Json.member "speedup" row) with
              | Some (Json.Int c), Some (Json.Float s) -> Some (c, s)
              | Some (Json.Int c), Some (Json.Int s) ->
                  Some (c, float_of_int s)
              | _ -> None)
            rows
      | _ -> [])

let compare_with_baseline ~fresh_factor_tree ~fresh_serve ~fresh_kernel path =
  let ic =
    try open_in_bin path
    with Sys_error message ->
      Printf.eprintf "FATAL: cannot read baseline %s: %s\n" path message;
      exit 1
  in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let baseline =
    match Json.of_string text with
    | Ok json -> json
    | Error message ->
        Printf.eprintf "FATAL: baseline %s is not valid JSON: %s\n" path
          message;
        exit 1
  in
  line (Printf.sprintf "Baseline comparison against %s" path);
  let fresh_wrapped =
    Json.Assoc
      [
        ("factor_tree", fresh_factor_tree);
        ("serve", fresh_serve);
        ("kernel", fresh_kernel);
      ]
  in
  let failures = ref 0 in
  List.iter
    (fun (top, section, key) ->
      let base_rows = speedup_rows ~top ~key section baseline in
      List.iter
        (fun (row_key, fresh_speedup) ->
          match List.assoc_opt row_key base_rows with
          | None ->
              Printf.printf "%s.%s %s=%d: %.2fx (no baseline entry)\n" top
                section key row_key fresh_speedup
          | Some base_speedup ->
              let floor = 0.85 *. base_speedup in
              let ok = fresh_speedup >= floor in
              Printf.printf
                "%s.%s %s=%d: %.2fx vs baseline %.2fx (floor %.2fx) %s\n" top
                section key row_key fresh_speedup base_speedup floor
                (if ok then "ok" else "REGRESSION");
              if not ok then incr failures)
        (speedup_rows ~top ~key section fresh_wrapped))
    [
      ("factor_tree", "gradient", "classes");
      ("factor_tree", "multi_delta", "classes");
      ("serve", "load", "classes");
      ("kernel", "combine", "classes");
      ("kernel", "parallel", "classes");
    ];
  if !failures > 0 then begin
    Printf.eprintf
      "FATAL: %d speedup(s) regressed more than 15%% against %s\n" !failures
      path;
    exit 1
  end

(* Relative agreement required between the batched shadow costs and the
   per-class re-solve path (same quantity, different rounding). *)
let gradient_gap_limit = 1e-9

(* Acceptance floor on the R=8 batched-gradient speedup, gated in smoke
   mode where CI runs it. *)
let gradient8_speedup_floor = 2.0

(* Acceptance floor for the daemon: at R=8 serving the batch off hot
   trees must beat stateless per-query re-solving. *)
let serve8_speedup_floor = 1.0

(* Acceptance floors for the combine kernels, gated in smoke mode: the
   tiled Bigarray kernel must beat the reference combine by 1.5x at the
   R=8 scale, and banding a large combine across domains must never
   lose to running it sequentially.  The reference builds its two
   O(cap^2) weight grids inside the timed call, about 0.85 ms of its
   1.4-1.8 ms at cap 256 on a 2-vCPU host, so the measured ratio
   (18-28x there) overstates the kernel-only gain about twofold; the
   1.5x floor stays far below either. *)
let kernel_combine8_floor = 1.5
let kernel_parallel8_floor = 1.0

let () =
  let fast = Array.exists (String.equal "--fast") Sys.argv in
  let smoke = Array.exists (String.equal "--smoke") Sys.argv in
  (* Developer loop for the kernel microbenchmarks alone (no snapshot,
     no gates): dune exec bench/main.exe -- --kernel-only [--smoke]. *)
  if Array.exists (String.equal "--kernel-only") Sys.argv then begin
    ignore (kernel_benches ~smoke : Json.t * float * float);
    exit 0
  end;
  let json_path = parse_json_path Sys.argv in
  let baseline_path = parse_baseline_path Sys.argv in
  let mode = if smoke then "smoke" else if fast then "fast" else "full" in
  let telemetry = Engine.Telemetry.create () in
  if not smoke then reproduce ~telemetry ();
  let sweeps, sweep_ulp = sweep_benches ~smoke ~telemetry in
  let factor_tree, tree_ulp, gradient_gap, gradient8_speedup =
    factor_tree_benches ~smoke ~telemetry
  in
  let serve, serve_ulp, serve_replay_ok, serve8_speedup =
    serve_benches ~smoke
  in
  let json = json_benches ~smoke in
  let pool = pool_dispatch_row ~smoke in
  let kernel, kernel_combine8, kernel_parallel8 =
    kernel_benches ~smoke
  in
  let replications, replication_ulp = replication_bench ~smoke in
  let worst_ulp =
    max (max sweep_ulp tree_ulp) (max replication_ulp serve_ulp)
  in
  let timings = if fast || smoke then [] else benchmark () in
  (match json_path with
  | None -> ()
  | Some path ->
      write_snapshot path
        (snapshot ~mode ~telemetry ~sweeps ~factor_tree ~serve ~json ~kernel
           ~pool ~replications ~timings);
      let json = validate_snapshot path in
      let solve_count =
        match Json.member "telemetry" json with
        | Some telemetry_json -> (
            match Json.member "solves" telemetry_json with
            | Some (Json.Int n) -> n
            | _ -> 0)
        | None -> 0
      in
      Printf.printf "\nwrote %s (%d engine solve(s), validated)\n" path
        solve_count);
  (match baseline_path with
  | None -> ()
  | Some path ->
      compare_with_baseline ~fresh_factor_tree:factor_tree ~fresh_serve:serve
        ~fresh_kernel:kernel path);
  (* The accuracy gate CI depends on: incremental solves and multi-domain
     replications must match their reference paths within 1 ulp. *)
  if worst_ulp > 1 then begin
    Printf.eprintf
      "FATAL: incremental/parallel results diverge from the reference path \
       by %d ulp (limit 1)\n"
      worst_ulp;
    exit 1
  end;
  if gradient_gap > gradient_gap_limit then begin
    Printf.eprintf
      "FATAL: batched shadow costs diverge from the per-class re-solve path \
       by %.3g relative (limit %.0e)\n"
      gradient_gap gradient_gap_limit;
    exit 1
  end;
  (* The acceptance floor for the batched gradient: at R=8 the single
     factor-tree solve must beat the R+1 re-solve path. *)
  if smoke && gradient8_speedup < gradient8_speedup_floor then begin
    Printf.eprintf
      "FATAL: factor-tree gradient speedup at R=8 is %.2fx (floor %.1fx)\n"
      gradient8_speedup gradient8_speedup_floor;
    exit 1
  end;
  (* Serve gates: batched responses must be byte-identical to the
     one-at-a-time replay, and at R=8 hot-tree serving must beat
     stateless per-query re-solving. *)
  if not serve_replay_ok then begin
    Printf.eprintf
      "FATAL: batched serve responses differ from the one-at-a-time replay\n";
    exit 1
  end;
  if smoke && serve8_speedup < serve8_speedup_floor then begin
    Printf.eprintf
      "FATAL: serve batching speedup at R=8 is %.2fx (floor %.1fx)\n"
      serve8_speedup serve8_speedup_floor;
    exit 1
  end;
  (* Kernel gates: the tiled kernel must hold its margin over the
     reference combine, and banding must never cost wall time. *)
  if smoke && kernel_combine8 < kernel_combine8_floor then begin
    Printf.eprintf
      "FATAL: tiled combine speedup at R=8 is %.2fx (floor %.1fx)\n"
      kernel_combine8 kernel_combine8_floor;
    exit 1
  end;
  if smoke && kernel_parallel8 < kernel_parallel8_floor then begin
    Printf.eprintf
      "FATAL: banded combine speedup at R=8 is %.2fx (floor %.1fx)\n"
      kernel_parallel8 kernel_parallel8_floor;
    exit 1
  end
