(* The traced run's per-layer measurements.  Every number here comes
   from calls the benchmark makes into one layer's public functions,
   wrapped in spans (Trace) — nothing inside the library is
   instrumented.

   - Replay A drives the serve path in process: window-sized batches of
     the workload's own request lines through Protocol parsing,
     Batcher.execute (in one domain, so that its time compares with
     replay B's) and response serialisation, untraced and traced; the
     difference is the tracing overhead.
   - Replay B runs the same requests by calling the layers directly
     (Registry, Convolution, Revenue), one span per call under one
     span per request.  A first, untraced pass reads the arena
     counters from cold; a warm, untraced pass after each round of
     replay A gives the time that the batcher's self time (A's execute
     time minus B's request time for the same requests) subtracts, and
     a last, traced pass records the spans.
   - Probes time single layer calls at the workload's shapes. *)

module Json = Crossbar_engine.Json
module Clock = Crossbar_engine.Clock
module Telemetry = Crossbar_engine.Telemetry
module Protocol = Crossbar_serve.Protocol
module Batcher = Crossbar_serve.Batcher
module Registry = Crossbar_serve.Registry
module Model = Crossbar.Model
module Traffic = Crossbar.Traffic
module Convolution = Crossbar.Convolution
module Revenue = Crossbar.Revenue
module Mva = Crossbar.Mva

let span = Trace.with_span

(* Nearest-rank percentile, and the median (the mean of the two middle
   values of an even count); both NaN when empty. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean l = match l with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let time f =
  let t = Clock.now () in
  let v = f () in
  (v, Clock.now () -. t)

(* Solver failures are the defect workload's business; a probe that
   hits one records nothing rather than aborting the traced run. *)
let guarded f = try Some (f ()) with Failure _ | Invalid_argument _ -> None

(* ---------- replay A: the in-process serve path ---------- *)

type replay_a = {
  wall : float;
  execute : float;  (** summed Batcher.execute time *)
  batches : int;
  parse : float list;  (** per line, seconds (traced pass only) *)
  serialise : float list;
  request_bytes : int list;
  response_bytes : int list;
  responses : Json.t list;  (** in request order *)
  stats_first : float;
  stats_last : float;
  registry : Registry.t;
  telemetry : Telemetry.t;
  gc_minor : int;
  gc_major : int;
}

let chunks n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

let stats_request = { Protocol.id = Json.Int (-1); query = Protocol.Stats }

let replay_a ~window lines =
  let registry = Registry.create () and telemetry = Telemetry.create () in
  let parse = ref [] and serialise = ref [] in
  let request_bytes = ref [] and response_bytes = ref [] in
  let responses = ref [] and execute = ref 0.0 and batches = ref 0 in
  let stats () =
    snd (time (fun () -> Batcher.execute ~domains:1 ~registry ~telemetry [| stats_request |]))
  in
  let g0 = Gc.quick_stat () in
  let t0 = Clock.now () in
  let stats_first = stats () in
  List.iter
    (fun batch ->
      span "server.batch" (fun () ->
          let requests =
            List.filter_map
              (fun line ->
                let r, dt = time (fun () -> span "protocol.parse" (fun () -> Protocol.request_of_line line)) in
                parse := dt :: !parse;
                request_bytes := String.length line :: !request_bytes;
                Result.to_option r)
              batch
          in
          let outcome, dt =
            time (fun () ->
                span "batcher.execute" (fun () ->
                    Batcher.execute ~domains:1 ~registry ~telemetry (Array.of_list requests)))
          in
          execute := !execute +. dt;
          incr batches;
          Array.iter
            (fun json ->
              let line, dt =
                time (fun () -> span "protocol.serialise" (fun () -> Protocol.response_to_line json))
              in
              serialise := dt :: !serialise;
              response_bytes := String.length line :: !response_bytes;
              responses := json :: !responses)
            outcome.Batcher.responses))
    (chunks window lines);
  let stats_last = stats () in
  let wall = Clock.now () -. t0 in
  let g1 = Gc.quick_stat () in
  {
    wall;
    execute = !execute;
    batches = !batches;
    parse = !parse;
    serialise = !serialise;
    request_bytes = !request_bytes;
    response_bytes = !response_bytes;
    responses = List.rev !responses;
    stats_first;
    stats_last;
    registry;
    telemetry;
    gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* ---------- replay B: direct layer calls ---------- *)

let apply_change model (c : Protocol.change) =
  Model.map_class model c.Protocol.class_index (fun t ->
      let t = match c.Protocol.alpha with Some a -> Traffic.with_alpha t a | None -> t in
      match c.Protocol.beta with Some b -> Traffic.with_beta t b | None -> t)

type replay_b = { request_total : float; contexts : Convolution.context list }

let replay_b lines =
  let registry = Registry.create () in
  let t_total = ref 0.0 in
  let find tree = span "registry.find" (fun () -> Registry.find registry tree) in
  List.iter
    (fun line ->
      match Protocol.request_of_line line with
      | Error _ -> ()
      | Ok { Protocol.id; query } ->
          let request = match id with Json.Int i -> i | _ -> -1 in
          let (), dt =
            time (fun () ->
                span ~request "request" (fun () ->
                    ignore
                      (guarded (fun () ->
                           match query with
                           | Protocol.Solve { tree; model } ->
                               ignore
                                 (span "registry.install" (fun () -> Registry.install registry ~name:tree model))
                           | Protocol.Delta { tree; changes } -> (
                               match find tree with
                               | None -> ()
                               | Some { Registry.model; solved } ->
                                   let model' = List.fold_left apply_change model changes in
                                   let solved' =
                                     span "convolution.delta" (fun () ->
                                         Convolution.solve_delta ~recycle:true ~previous:solved model')
                                   in
                                   span "registry.replace" (fun () ->
                                       Registry.replace registry ~name:tree
                                         { Registry.model = model'; solved = solved' }))
                           | Protocol.Blocking { tree } -> (
                               match find tree with
                               | None -> ()
                               | Some { Registry.solved; _ } ->
                                   ignore (span "convolution.measures" (fun () -> Convolution.measures solved)))
                           | Protocol.Shadow_costs { tree; weights } | Protocol.Admit { tree; weights; _ } -> (
                               match find tree with
                               | None -> ()
                               | Some { Registry.model; solved } ->
                                   ignore
                                     (span "revenue.shadow_costs" (fun () ->
                                          Revenue.shadow_costs ~solved model ~weights)))
                           | Protocol.Stats | Protocol.Shutdown -> ()))))
          in
          t_total := !t_total +. dt)
    lines;
  (* The combine contexts the replay's trees were solved in. *)
  let contexts = ref [] in
  List.iter
    (fun line ->
      match Protocol.request_of_line line with
      | Ok { Protocol.query = Protocol.Solve { tree; _ }; _ } -> (
          match Registry.find registry tree with
          | Some { Registry.solved; _ } ->
              let ctx = Convolution.Factor_tree.context (Convolution.tree solved) in
              if not (List.memq ctx !contexts) then contexts := ctx :: !contexts
          | None -> ())
      | _ -> ())
    lines;
  { request_total = !t_total; contexts = !contexts }

let arena_counts contexts =
  List.fold_left
    (fun (r, c) ctx ->
      let a = Convolution.arena ctx in
      (r + Convolution.Arena.reused a, c + Convolution.Arena.created a))
    (0, 0) contexts

(* ---------- probes at the workload's shapes ---------- *)

type probes = {
  context_build_ms : float;
  solve_ms : float;
  delta_ms : float;
  mva_ms : float;
}

let probe_shapes (models : Model.t list) =
  let n = List.length models in
  let models =
    if n <= 6 then models else List.filteri (fun i _ -> i * 6 / n <> (i + 1) * 6 / n) models
  in
  let rows =
    List.map
      (fun m ->
        let _, ctx =
          time (fun () ->
              span "convolution.context_of" (fun () ->
                  Convolution.context_of ~inputs:(Model.inputs m) ~outputs:(Model.outputs m) ()))
        in
        let solved, solve = time (fun () -> span "convolution.solve" (fun () -> guarded (fun () -> Convolution.solve m))) in
        let delta =
          match solved with
          | None -> []
          | Some s0 ->
              let c = Model.num_classes m - 1 in
              let alpha = (Model.classes m).(c).Traffic.alpha in
              let alt = Gen.with_alpha m c (alpha *. 1.25) in
              let prev = ref s0 in
              List.init 5 (fun k ->
                  let target = if k mod 2 = 0 then alt else m in
                  let s, dt =
                    time (fun () ->
                        span "convolution.delta" (fun () ->
                            guarded (fun () -> Convolution.solve_delta ~recycle:true ~previous:!prev target)))
                  in
                  Option.iter (fun s -> prev := s) s;
                  dt)
        in
        let _, mva = time (fun () -> span "mva.solve" (fun () -> Mva.solve m)) in
        (ctx, solve, median delta, mva))
      models
  in
  let col f = mean (List.map f rows) *. 1e3 in
  {
    context_build_ms = col (fun (c, _, _, _) -> c);
    solve_ms = col (fun (_, s, _, _) -> s);
    delta_ms = col (fun (_, _, d, _) -> if Float.is_nan d then 0.0 else d);
    mva_ms = col (fun (_, _, _, m) -> m);
  }

(* ns per kernel term of the solver's combine at capacity [cap], on the
   two leaves of a two-class model (banded at or above the context's
   threshold, exactly as the solver runs it). *)
let combine_ns_per_term cap =
  let m =
    Model.square ~size:cap
      ~classes:
        [
          Traffic.poisson ~name:"x" ~bandwidth:1 ~rate:0.2 ~service_rate:1.0 ();
          Traffic.poisson ~name:"y" ~bandwidth:2 ~rate:0.1 ~service_rate:1.0 ();
        ]
  in
  let tree = Convolution.Factor_tree.build m in
  let ctx = Convolution.Factor_tree.context tree in
  let a = Convolution.Factor_tree.leaf tree 0 and b = Convolution.Factor_tree.leaf tree 1 in
  let arena = Convolution.arena ctx in
  let terms = float_of_int ((cap + 1) * (cap + 2) / 2) in
  let reps = max 3 (2_000_000 / int_of_float terms) in
  let samples =
    List.init 5 (fun _ ->
        let (), dt =
          time (fun () ->
              for _ = 1 to reps do
                let r = span "convolution.combine" (fun () -> Convolution.combine ctx a b) in
                Convolution.Arena.release arena r
              done)
        in
        dt /. float_of_int reps)
  in
  median samples /. terms *. 1e9

let band_dispatch_us () =
  let samples =
    List.init 400 (fun _ ->
        snd (time (fun () -> span "band_pool.run" (fun () -> Crossbar.Band_pool.run ~bands:2 (fun _ -> ())))))
  in
  median samples *. 1e6

(* ---------- response counts ---------- *)

(* Combine counters read off solve/delta response documents: mean
   [tree_combines] per delta, and the share of combines that ran
   banded. *)
type combines = {
  mutable deltas : int;
  mutable delta_combines : int;
  mutable combines : int;
  mutable banded : int;
}

let combines () = { deltas = 0; delta_combines = 0; combines = 0; banded = 0 }

let count_combines c ~op j =
  let int k = match Json.member k j with Some (Json.Int i) -> i | _ -> 0 in
  match Json.member "ok" j with
  | Some (Json.Bool true) when op = "solve" || op = "delta" ->
      c.combines <- c.combines + int "tree_combines";
      c.banded <- c.banded + int "banded_combines";
      if op = "delta" then begin
        c.deltas <- c.deltas + 1;
        c.delta_combines <- c.delta_combines + int "tree_combines"
      end
  | _ -> ()

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let per_delta c = ratio c.delta_combines c.deltas
let banded_share c = ratio c.banded c.combines
