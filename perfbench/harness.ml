(* perfbench harness: one workload, one run.

     harness.exe --workload NAME --seed N --seconds S --trace 0|1
                 --serve-exe PATH --run-dir DIR

   With --trace 0 it reports the end-to-end metrics; with --trace 1 the
   per-layer metrics (README.md has the map between them).  The last
   line of stdout is one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. *)

module Json = Crossbar_engine.Json
module Clock = Crossbar_engine.Clock
module Sweep = Crossbar_engine.Sweep
module Pool = Crossbar_engine.Pool
module Model = Crossbar.Model
module Measures = Crossbar.Measures
module Solver = Crossbar.Solver

let now = Clock.now

(* ---------- statistics and output ---------- *)

let percentile = Layers.percentile
let median = Layers.median

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Throughput and latency are printed for every run but not tracked in
   the result line: on a shared host their run-to-run spread exceeds
   any bound a tracked metric may have (README.md, "Host steal"). *)
let report name unit value ~samples =
  say "%-16s %14.6g %-4s (%s)" name value unit samples

let finish ~attempted ~failed =
  let ms = List.rev !metrics in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) ms in
  if not finite then
    List.iter (fun (n, v, _) -> if not (Float.is_finite v) then say "non-finite metric %s" n) ms;
  let body =
    String.concat ","
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name
             (if Float.is_finite v then v else 0.0)
             unit)
         ms)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (failed = 0 && finite) (max 1 attempted) failed body

(* The quieter half of a run's repetitions, ranked by [steal], the
   share of the machine's CPU time the host took while each ran.  On a
   shared host the other tenants are not the program's doing, so the
   timing metrics are medians over these. *)
let quieter_half steal l =
  let ranked = List.stable_sort (fun a b -> Float.compare (steal a) (steal b)) l in
  List.filteri (fun i _ -> i < (List.length ranked + 1) / 2) ranked

let steal_share ~steal0 ~wall =
  (Load.steal_s () -. steal0) /. (wall *. float_of_int (Domain.recommended_domain_count ()))

(* CPU time, corrected for the host's steal: [cpu / (1 + steal)].  When
   the host deschedules one vCPU, the domains on the other one wait for
   it in the runtime's stop-the-world barriers and spin-then-park
   loops, so the CPU time of the same work grows with the steal.  On the
   development host it grew as [1 + k steal] with [k] between 0.8 and
   1.15 across the serve workloads' conversations and set-ups (README.md,
   "Host steal"); dividing by [1 + steal] takes most of that out. *)
let steal_adjusted ~steal cpu = cpu /. (1.0 +. steal)

(* ---------- failure bookkeeping ---------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Map a failed check onto the defect list in README.md. *)
let defect ~daemon_died = function
  | Oracle.Mismatch _ -> "D1 wrong measures"
  | Oracle.Nan _ -> "D2 NaN measures"
  | Oracle.Not_ok m when contains m "flushed" -> "D2 log_normalization raises"
  | Oracle.Missing when daemon_died -> "D3 daemon died"
  | f -> "other " ^ Oracle.category f

type tally = { mutable attempted : int; mutable failed : int; kinds : (string, int) Hashtbl.t; mutable shown : int }

let tally () = { attempted = 0; failed = 0; kinds = Hashtbl.create 8; shown = 0 }

let record t ~daemon_died ~what = function
  | None -> t.attempted <- t.attempted + 1
  | Some f ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      let k = defect ~daemon_died f in
      Hashtbl.replace t.kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt t.kinds k));
      if t.shown < 5 then begin
        t.shown <- t.shown + 1;
        say "  failed %s: %s — %s" what k (Oracle.detail f)
      end

let report_tally t =
  say "answer check: %d attempted, %d failed, error_rate %.6f" t.attempted t.failed
    (float_of_int t.failed /. float_of_int (max 1 t.attempted));
  List.iter
    (fun (k, n) -> say "  %-32s %d" k n)
    (List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.kinds []))

(* ---------- serve workloads ---------- *)

type served = {
  setup : float;  (** daemon CPU seconds from spawn to the last install answered *)
  setup_wall : float;  (** wall seconds over the same span *)
  setup_steal : float;  (** share of the machine's CPU time the host took over it *)
  steal : float;  (** share of the machine's CPU time the host took during the timed phase *)
  cpu : float;  (** daemon CPU seconds during the timed phase *)
  installs : Load.answer list;
  timed : Load.answer list;
  polls : Load.answer list;  (** first and last stats poll *)
  timed_wall : float;
  conversation_wall : float;
  rss : float;  (** the daemon's VmHWM at the end of the conversation *)
  status : Unix.process_status;
}

let stall = 30.0

(* A fresh daemon, set up: spawn it, connect, and install every resident
   tree.  The set-up figure is the daemon's CPU time over that span: on
   a shared host the wall time swings with what the host steals, the CPU
   time much less (though still somewhat, so the steal over the span is
   kept too). *)
type started = {
  daemon : Load.daemon;
  conns : Load.conn array;
  set_up : Load.answer list;  (** the install answers *)
  after_setup : Load.ending;
  setup_cpu : float;
  setup_elapsed : float;
  setup_stolen : float;
  next_id : unit -> int;
}

let start (w : Gen.serve) ~exe ~dir ~tag =
  let n = ref 0 in
  let next_id () =
    incr n;
    !n
  in
  let t_spawn = now () and steal0 = Load.steal_s () in
  let d = Load.spawn ~exe ~dir ~tag in
  let conns =
    Array.init w.Gen.connections (fun _ ->
        match Load.connect d ~timeout:20.0 with
        | Some fd -> Load.open_conn fd
        | None ->
            ignore (Load.stop d ~grace:0.0);
            failwith "the daemon did not accept connections")
  in
  let lists = Array.init w.Gen.connections (fun conn -> Gen.installs w ~conn ~next_id) in
  let set_up, after_setup = Load.exchange conns lists ~depth:w.Gen.depth ~stall in
  let setup_elapsed = now () -. t_spawn in
  let setup_cpu = Load.cpu_s d.Load.pid in
  let setup_stolen = steal_share ~steal0 ~wall:setup_elapsed in
  { daemon = d; conns; set_up; after_setup; setup_cpu; setup_elapsed; setup_stolen; next_id }

(* Ask a daemon that still answers to shut down, close the connections,
   then reap it (killing it after a grace period). *)
let finish_daemon st ending =
  if ending = Load.Finished then
    ignore (Load.exchange st.conns [| [ Gen.shutdown_request ~id:(st.next_id ()) ] |] ~depth:1 ~stall);
  Array.iter (fun c -> try Unix.close c.Load.fd with Unix.Unix_error _ -> ()) st.conns;
  Load.stop st.daemon ~grace:10.0

(* A set-up on its own, for the set-up samples beyond the
   conversations': the install answers, the daemon's set-up CPU time and
   the steal over it, and its exit status. *)
let setup_only w ~exe ~dir ~tag =
  let st = start w ~exe ~dir ~tag in
  let status = finish_daemon st st.after_setup in
  (st.set_up, (st.setup_cpu, st.setup_stolen), status)

(* One conversation with a fresh daemon: set it up, poll stats, run the
   closed loop for [w.requests] requests, poll stats again, read its
   peak RSS and shut it down.  Every conversation of a run replays the
   same seeded streams, so each one does the same work; [deadline] only
   bounds a pathologically slow daemon. *)
let conversation (w : Gen.serve) ~exe ~dir ~streams ~deadline ~tag =
  let st = start w ~exe ~dir ~tag in
  let conns = st.conns and next_id = st.next_id in
  let conversation_start = now () in
  let poll ending =
    if ending = Load.Finished then
      Load.exchange conns [| [ Gen.stats_request ~id:(next_id ()) ] |] ~depth:1 ~stall
    else ([], ending)
  in
  let first, ending = poll st.after_setup in
  let count = ref 0 and taken = Array.make w.Gen.connections 0 in
  let next k =
    if !count >= w.Gen.requests then None
    else begin
      incr count;
      if !count mod w.Gen.stats_every = 0 then Some (Gen.stats_request ~id:(next_id ()))
      else begin
        taken.(k) <- taken.(k) + 1;
        Some streams.(k).(taken.(k) - 1)
      end
    end
  in
  let pid = st.daemon.Load.pid in
  let t0 = now () and steal0 = Load.steal_s () and cpu0 = Load.cpu_s pid in
  let timed, ending =
    if ending = Load.Finished then
      Load.converse conns ~depth:w.Gen.depth ~deadline ~stall ~next
    else ([], ending)
  in
  let timed_wall = now () -. t0 in
  let cpu = Load.cpu_s pid -. cpu0 in
  let steal = steal_share ~steal0 ~wall:timed_wall in
  let last, ending = poll ending in
  let conversation_wall = now () -. conversation_start in
  let rss = Load.peak_rss_mb (string_of_int pid) in
  let status = finish_daemon st ending in
  say "%s: conversation %s in %.3f s (host steal %.1f%% of the CPUs); daemon %s" tag
    (Load.ending_to_string ending) timed_wall
    (100.0 *. steal)
    (Load.status_to_string status);
  {
    setup = st.setup_cpu;
    setup_wall = st.setup_elapsed;
    setup_steal = st.setup_stolen;
    steal;
    cpu;
    installs = st.set_up;
    timed;
    polls = first @ last;
    timed_wall;
    conversation_wall;
    rss;
    status;
  }

let parse_line line = match Json.of_string line with Ok j -> Some j | Error _ -> None

let shape_of_expect (w : Gen.serve) e =
  let shape m = Some (Model.capacity m, Model.num_classes m) in
  match e with
  | Gen.Install { conn; tree; _ } | Gen.Delta { conn; tree; _ } | Gen.Blocking { conn; tree; _ }
  | Gen.Shadow { conn; tree; _ } | Gen.Admit { conn; tree; _ } ->
      shape w.Gen.trees.(conn).(tree).Gen.states.(0)
  | Gen.Whatif { model } -> shape (fst w.Gen.whatifs.(model))
  | Gen.Stats | Gen.Shutdown -> None

(* Oracle answers per tree state and one-shot model, shared by every
   conversation of a run. *)
let memo = Hashtbl.create 64

(* Check every answer of a conversation against the oracle, into the
   tally [t]; solve/delta responses also feed the combine counters. *)
let check_serve (w : Gen.serve) t combines ~daemon_died answers =
  let oracle key model weights =
    match Hashtbl.find_opt memo key with
    | Some e -> e
    | None ->
        let e = Oracle.expect model ~weights in
        Hashtbl.add memo key e;
        e
  in
  let tree_oracle conn tree state =
    let t = w.Gen.trees.(conn).(tree) in
    (oracle (`Tree (conn, tree, state)) t.Gen.states.(state) t.Gen.weights, t)
  in
  List.iter
    (fun (a : Load.answer) ->
      let r = a.Load.request in
      let id = r.Gen.id in
      let what =
        match shape_of_expect w r.Gen.expect with
        | Some (cap, classes) -> Printf.sprintf "#%d %s cap %d R=%d" id (Gen.kind_name r.Gen.expect) cap classes
        | None -> Printf.sprintf "#%d %s" id (Gen.kind_name r.Gen.expect)
      in
      match Option.map Json.of_string a.Load.line with
      | None -> record t ~daemon_died ~what (Some Oracle.Missing)
      | Some (Error e) -> record t ~daemon_died ~what (Some (Oracle.Malformed ("unparsable response: " ^ e)))
      | Some (Ok json) ->
          let check = Oracle.check ~id json in
          let result =
            match r.Gen.expect with
            | Gen.Install { conn; tree; state } | Gen.Delta { conn; tree; state } ->
                let e, _ = tree_oracle conn tree state in
                let op = match r.Gen.expect with Gen.Delta _ -> "delta" | _ -> "solve" in
                Layers.count_combines combines ~op json;
                check (Oracle.check_solved e)
            | Gen.Blocking { conn; tree; state } ->
                let e, _ = tree_oracle conn tree state in
                check (Oracle.check_blocking e)
            | Gen.Shadow { conn; tree; state } ->
                let e, _ = tree_oracle conn tree state in
                check (Oracle.check_shadow e)
            | Gen.Admit { conn; tree; state; class_index } ->
                let e, tr = tree_oracle conn tree state in
                check (Oracle.check_admit e ~weights:tr.Gen.weights ~class_index)
            | Gen.Whatif { model } ->
                let m, weights = w.Gen.whatifs.(model) in
                let e = oracle (`Whatif model) m weights in
                Layers.count_combines combines ~op:"solve" json;
                check (Oracle.check_solved e)
            | Gen.Stats ->
                check (fun j ->
                    ignore (Oracle.member "telemetry" j);
                    ignore (Oracle.member "registry" j))
            | Gen.Shutdown -> check (fun _ -> ())
          in
          record t ~daemon_died ~what result)
    answers

(* The workload's mix, as shares of the timed requests. *)
let print_mix (w : Gen.serve) (timed : Load.answer list) ~banded_share =
  let n = float_of_int (max 1 (List.length timed)) in
  let share f = float_of_int (List.length (List.filter f timed)) /. n in
  let kind k (a : Load.answer) = Gen.kind_name a.Load.request.Gen.expect = k in
  let resolve (a : Load.answer) = match a.Load.request.Gen.expect with Gen.Install _ -> true | _ -> false in
  let large (a : Load.answer) =
    match shape_of_expect w a.Load.request.Gen.expect with Some (c, _) -> c >= 256 | None -> false
  in
  say "mix: reads %.3f  deltas %.3f  re-solves %.3f  what-if solves %.3f  stats %.5f  banded combines %.3f  requests at cap>=256 %.3f"
    (share (kind "read")) (share (kind "delta")) (share resolve) (share (kind "whatif"))
    (share (kind "stats")) banded_share (share large)

let stats_field path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let stats_number path j =
  match stats_field path j with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> Float.nan

let latency_ms (a : Load.answer) = a.Load.latency *. 1e3

let answered (l : Load.answer list) = List.filter (fun (a : Load.answer) -> Option.is_some a.Load.line) l

(* One-request repro of defect D3: a read of a tree whose install
   answered ok:false.  The daemon is expected to die; the probe reports
   how, and the unanswered read counts as failed. *)
let d3_probe ~exe ~dir t =
  let cap = 384 in
  let m =
    Model.square ~size:cap
      ~classes:
        (List.init 8 (fun j ->
             let bandwidth = if j mod 2 = 0 then 1 else 2 in
             let alpha = 0.15 *. float_of_int cap /. (float_of_int bandwidth *. Gen.choose cap bandwidth) in
             let name = Printf.sprintf "c%d" j in
             if j mod 4 = 3 then
               Crossbar.Traffic.pascal ~name ~bandwidth ~alpha ~beta:0.01 ~service_rate:1.0 ()
             else Crossbar.Traffic.poisson ~name ~bandwidth ~rate:alpha ~service_rate:1.0 ()))
  in
  let d = Load.spawn ~exe ~dir ~tag:"d3" in
  match Load.connect d ~timeout:20.0 with
  | None -> say "D3 probe: daemon did not start (%s)" (Load.status_to_string (Load.stop d ~grace:0.0))
  | Some fd ->
      let c = Load.open_conn fd in
      let solve = { Gen.id = 1; line = Gen.line_of ~id:1 (Crossbar_serve.Protocol.Solve { tree = "d3"; model = m }); expect = Gen.Stats } in
      let read = { Gen.id = 2; line = Gen.line_of ~id:2 (Crossbar_serve.Protocol.Blocking { tree = "d3" }); expect = Gen.Stats } in
      let answers, ending = Load.exchange [| c |] [| [ solve; read ] |] ~depth:1 ~stall:20.0 in
      if Load.alive d then
        ignore (Load.exchange [| c |] [| [ Gen.shutdown_request ~id:3 ] |] ~depth:1 ~stall:20.0);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let status = Load.stop d ~grace:10.0 in
      let died = status <> Unix.WEXITED 0 in
      say "D3 probe: install R=8 cap 384 then read it: %s, daemon %s, socket file %s"
        (Load.ending_to_string ending) (Load.status_to_string status)
        (if Sys.file_exists d.Load.socket then "left behind" else "removed");
      List.iter
        (fun (a : Load.answer) ->
          let what = Printf.sprintf "D3 probe #%d" a.Load.request.Gen.id in
          match a.Load.line with
          | None -> record t ~daemon_died:died ~what (Some Oracle.Missing)
          | Some line ->
              record t ~daemon_died:died ~what
                (Oracle.check_line ~id:a.Load.request.Gen.id line (fun _ -> ())))
        answers

(* The traced run's replay stream, generated exactly as the
   conversation generates it: the installs, then [limit] requests taken
   from the connections' streams in turn (each tree belongs to one
   connection, so per-tree order is that of the conversation). *)
let replay_lines (w : Gen.serve) ~seed ~limit =
  let n = ref 0 in
  let next_id () =
    incr n;
    !n
  in
  let installs = List.concat (List.init w.Gen.connections (fun conn -> Gen.installs w ~conn ~next_id)) in
  let streams = Array.init w.Gen.connections (fun conn -> Gen.stream w ~seed ~conn) in
  let timed =
    List.init limit (fun k ->
        let id = next_id () in
        if (k + 1) mod w.Gen.stats_every = 0 then Gen.stats_request ~id
        else Gen.next streams.(k mod w.Gen.connections) ~id)
  in
  List.map (fun (r : Gen.request) -> r.Gen.line) (installs @ timed)

(* ---------- per-layer metrics (traced run) ---------- *)

(* Numbers only the sweep engine gives: from its outcomes, and the GC
   figures of one plan. *)
type sweep_layers = {
  cache_hit_rate : float;
  incremental_share : float;
  pool_efficiency : float;
  gc_minor : int;
  gc_major : int;
  gc_top_heap_mb : float;
}

let top_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* Numbers only the daemon conversation (serve) or the sweep engine
   (sweep-plan) can give; a workload leaves the other's at 0. *)
type workload_layers = {
  busy_share : float;
  hit_rate : float;
  entries : float;
  records : float;
  stats_first_ms : float;
  stats_last_ms : float;
  combines : Layers.combines;
  sweep : sweep_layers option;
}

(* What the serve replays measure. *)
type replayed = {
  a : Layers.replay_a;  (** the first traced replay A *)
  u1 : Layers.replay_a;  (** the first untraced replay A *)
  execute_us : float;  (** the batcher's self time per batch *)
  reused : int;
  created : int;
  untraced : float;
  traced : float;
}

(* Replays of the workload's request [lines] (none for sweep-plan, which
   sends no requests) and probes at its [shapes], run first in a fresh
   process so that the GC figures describe them and not the harness's
   own bookkeeping.  Returns a function that emits every per-layer
   metric. *)
let layer_metrics ~run_dir ~workload ~lines ~window ~shapes =
  Trace.reset ();
  let replayed =
    if lines = [] then None
    else begin
      (* A cold, untraced replay B first, so the arena counters it reads
         are its own. *)
      Trace.enabled := false;
      let cold = Layers.replay_b lines in
      let reused, created = Layers.arena_counts cold.Layers.contexts in
      let replay traced =
        Trace.enabled := traced;
        let r = Layers.replay_a ~window lines in
        Trace.enabled := true;
        r
      in
      (* Untraced and traced replays A alternate; the overhead compares
         their medians.  Each round ends with a warm, untraced replay B,
         whose layer time the batcher's self time subtracts from the
         round's untraced execute time: the difference of two timings
         is noisy, so it is taken within a round and the median over
         rounds is reported. *)
      let rounds =
        List.init 3 (fun _ ->
            let u = replay false in
            let t = replay true in
            Trace.enabled := false;
            let b = Layers.replay_b lines in
            Trace.enabled := true;
            (u, t, b.Layers.request_total))
      in
      let u1, a, _ = List.hd rounds in
      let median_of f = median (List.map f rounds) in
      let untraced = median_of (fun (u, _, _) -> u.Layers.wall) and traced = median_of (fun (_, t, _) -> t.Layers.wall) in
      let execute_us =
        median_of (fun (u, _, b) -> (u.Layers.execute -. b) /. float_of_int (max 1 u.Layers.batches) *. 1e6)
      in
      (* A traced replay B for the per-layer spans. *)
      ignore (Layers.replay_b lines : Layers.replay_b);
      Some { a; u1; execute_us; reused; created; untraced; traced }
    end
  in
  Trace.enabled := true;
  let replay_top_heap_mb = top_heap_mb () in
  let probes = Layers.probe_shapes shapes in
  let combine = List.map (fun cap -> (cap, Layers.combine_ns_per_term cap)) [ 64; 256; 512 ] in
  let dispatch = Layers.band_dispatch_us () in
  Trace.enabled := false;
  (match replayed with
  | Some r ->
      say "traced replay: %d requests in %d batches of %d; median untraced %.4f s, traced %.4f s (overhead %+.1f%%)"
        (List.length lines) r.a.Layers.batches window r.untraced r.traced
        (((r.traced /. r.untraced) -. 1.0) *. 100.0)
  | None ->
      say "no serve replay: %s sends no requests, so the serve-path layers and the tracing overhead report 0"
        workload);
  say "self time per layer (traced replays and probes):";
  say "  %-30s %8s %12s %12s" "span" "count" "total ms" "self ms";
  List.iter
    (fun (name, n, total, self) -> say "  %-30s %8d %12.3f %12.3f" name n (total *. 1e3) (self *. 1e3))
    (Trace.self_times ());
  let path = Filename.concat run_dir (workload ^ "-trace.json") in
  Trace.write_chrome path;
  say "chrome trace: %s (%d spans)" path (List.length !Trace.spans);
  fun (wl : workload_layers) ->
    let us = 1e6 in
    let mean_of name =
      let n, t = Trace.total name in
      if n = 0 then 0.0 else t /. float_of_int n
    in
    let of_replay f = match replayed with Some r -> f r | None -> 0.0 in
    let fmean l = Layers.mean (List.map float_of_int l) in
    let of_sweep f = match wl.sweep with Some s -> f s | None -> 0.0 in
    let gc_minor, gc_major, gc_top_heap_mb =
      match (replayed, wl.sweep) with
      | Some r, _ -> (r.u1.Layers.gc_minor, r.u1.Layers.gc_major, replay_top_heap_mb)
      | None, Some s -> (s.gc_minor, s.gc_major, s.gc_top_heap_mb)
      | None, None -> (0, 0, 0.0)
    in
    metric "protocol.parse_us" "us" (of_replay (fun r -> Layers.mean r.a.Layers.parse *. us));
    metric "protocol.serialise_us" "us" (of_replay (fun r -> Layers.mean r.a.Layers.serialise *. us));
    metric "protocol.request_bytes" "B" (of_replay (fun r -> fmean r.a.Layers.request_bytes));
    metric "protocol.response_bytes" "B" (of_replay (fun r -> fmean r.a.Layers.response_bytes));
    metric "batcher.execute_us" "us" (of_replay (fun r -> r.execute_us));
    metric "batcher.busy_share" "ratio" wl.busy_share;
    metric "registry.install_us" "us" (mean_of "registry.install" *. us);
    metric "registry.find_us" "us" (mean_of "registry.find" *. us);
    metric "registry.hit_rate" "ratio" wl.hit_rate;
    metric "registry.entries" "count" wl.entries;
    metric "telemetry.stats_first_ms" "ms" wl.stats_first_ms;
    metric "telemetry.stats_last_ms" "ms" wl.stats_last_ms;
    metric "telemetry.records" "count" wl.records;
    metric "convolution.context_build_ms" "ms" probes.Layers.context_build_ms;
    metric "convolution.solve_ms" "ms" probes.Layers.solve_ms;
    metric "convolution.delta_ms" "ms" probes.Layers.delta_ms;
    List.iter
      (fun (cap, ns) -> metric (Printf.sprintf "convolution.combine_ns_per_term_c%d" cap) "ns" ns)
      combine;
    metric "convolution.tree_combines_per_delta" "count" (Layers.per_delta wl.combines);
    metric "convolution.banded_share" "ratio" (Layers.banded_share wl.combines);
    metric "convolution.arena_reuse" "ratio" (of_replay (fun r -> Layers.ratio r.reused (r.reused + r.created)));
    metric "band_pool.dispatch_us" "us" dispatch;
    metric "revenue.shadow_costs_us" "us" (mean_of "revenue.shadow_costs" *. us);
    metric "mva.solve_ms" "ms" probes.Layers.mva_ms;
    metric "sweep.cache_hit_rate" "ratio" (of_sweep (fun s -> s.cache_hit_rate));
    metric "sweep.incremental_share" "ratio" (of_sweep (fun s -> s.incremental_share));
    metric "pool.efficiency" "ratio" (of_sweep (fun s -> s.pool_efficiency));
    metric "gc.minor_collections" "count" (float_of_int gc_minor);
    metric "gc.major_collections" "count" (float_of_int gc_major);
    metric "gc.top_heap_mb" "MB" gc_top_heap_mb;
    metric "trace.overhead_share" "ratio" (of_replay (fun r -> (r.traced /. r.untraced) -. 1.0))

(* ---------- workloads ---------- *)

let distinct_shapes models =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun m ->
      let k = (Model.capacity m, Model.num_classes m) in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    models

let setup_samples = 61

let run_serve (w : Gen.serve) ~exe ~dir ~seed ~seconds ~traced =
  let emit =
    if not traced then None
    else begin
      let shapes =
        distinct_shapes
          (List.concat_map (fun ts -> List.map (fun (tr : Gen.tree) -> tr.Gen.states.(0)) (Array.to_list ts))
             (Array.to_list w.Gen.trees)
          @ List.map fst (Array.to_list w.Gen.whatifs))
      in
      let limit = if w.Gen.depth > 4 then 3000 else 120 in
      Some
        (layer_metrics ~run_dir:dir ~workload:w.Gen.name
           ~lines:(replay_lines w ~seed ~limit)
           ~window:(w.Gen.connections * w.Gen.depth) ~shapes)
    end
  in
  (* Conversations of [w.requests] requests each, with fresh daemons,
     until [seconds] have passed (at least two); the end-to-end metrics
     are medians over them.  The traced run holds one conversation. *)
  (* Each connection's stream is generated once, before any timing,
     so the load generator only writes and reads while a daemon is
     measured.  Ids from 1,000,000 up keep clear of the per-conversation
     ids of installs and polls. *)
  let streams =
    Array.init w.Gen.connections (fun conn ->
        let s = Gen.stream w ~seed ~conn in
        Array.init w.Gen.requests (fun i -> Gen.next s ~id:((1_000_000 * (conn + 1)) + i)))
  in
  (* Past [deadline] nothing new starts, so that a slow daemon still
     leaves the harness time to check the answers within run.py's
     limit. *)
  let t_run = now () in
  let deadline = t_run +. (2.0 *. seconds) +. 20.0 in
  let rec run k acc =
    if (traced && k = 1) || (k >= 2 && now () -. t_run >= seconds) || (k >= 1 && now () >= deadline) then
      List.rev acc
    else
      run (k + 1)
        (conversation w ~exe ~dir ~streams ~deadline ~tag:(Printf.sprintf "%s-%d" w.Gen.name k) :: acc)
  in
  let convs = run 0 [] in
  (* Set-ups on their own, until the untraced run holds [setup_samples]:
     one set-up takes tens of milliseconds, and its CPU time still
     varies by a third from one daemon to the next. *)
  let rec more_setups k acc =
    if traced || k + List.length convs >= setup_samples || now () >= deadline then List.rev acc
    else
      more_setups (k + 1) (setup_only w ~exe ~dir ~tag:(Printf.sprintf "%s-setup-%d" w.Gen.name k) :: acc)
  in
  let extra = more_setups 0 [] in
  let t = tally () and combines = Layers.combines () in
  List.iter
    (fun s ->
      check_serve w t combines ~daemon_died:(s.status <> Unix.WEXITED 0) (s.installs @ s.timed @ s.polls))
    convs;
  List.iter
    (fun (installs, _, status) ->
      check_serve w t (Layers.combines ()) ~daemon_died:(status <> Unix.WEXITED 0) installs)
    extra;
  if w.Gen.name = "serve-large-defects" then d3_probe ~exe ~dir t;
  let s0 = List.hd convs in
  print_mix w s0.timed ~banded_share:(Layers.banded_share combines);
  report_tally t;
  let per f = List.map f convs in
  let lats s = List.map latency_ms (answered s.timed) in
  say "timed phase: %d conversations of %d requests; answered %s" (List.length convs) w.Gen.requests
    (String.concat " " (per (fun s -> string_of_int (List.length (answered s.timed)))));
  (match emit with
  | None ->
      let show ?(per = "conversation") name l =
        say "  per %-12s %-15s %s" per name (String.concat " " (List.map (Printf.sprintf "%.5g") l))
      in
      let quiet = quieter_half (fun s -> s.steal) convs in
      let over f = List.map f quiet in
      let ops = over (fun s -> float_of_int (List.length (answered s.timed)) /. s.timed_wall) in
      let p50 = over (fun s -> median (lats s)) and p99 = over (fun s -> percentile 0.99 (lats s)) in
      let cpu_per_op s = 1e3 *. s.cpu /. float_of_int (max 1 (List.length (answered s.timed))) in
      let cpu = per cpu_per_op in
      let cpu_adjusted = per (fun s -> steal_adjusted ~steal:s.steal (cpu_per_op s)) in
      let setups = per (fun s -> (s.setup, s.setup_steal)) @ List.map (fun (_, sample, _) -> sample) extra in
      let setups_adjusted = List.map (fun (c, steal) -> steal_adjusted ~steal c) setups in
      let rss = per (fun s -> s.rss) in
      show "host steal %" (per (fun s -> 100.0 *. s.steal));
      show "setup wall s" (per (fun s -> s.setup_wall));
      show "peak_rss_mb" rss;
      show "CPU ms per op" cpu;
      show "the same, adj." cpu_adjusted;
      say "  the quieter half (%d conversations):" (List.length quiet);
      show "ops_per_s" ops;
      show "latency_p50_ms" p50;
      show "latency_p99_ms" p99;
      say "  all %d set-ups, the conversations' first:" (List.length setups);
      show ~per:"set-up" "host steal %" (List.map (fun (_, st) -> 100.0 *. st) setups);
      show ~per:"set-up" "CPU s" (List.map fst setups);
      show ~per:"set-up" "the same, adj." setups_adjusted;
      say "  cpu_ms_per_op, setup_s: steal-adjusted CPU time, median over all %d conversations and %d set-ups"
        (List.length convs) (List.length setups);
      let samples =
        Printf.sprintf "median over %d conversations; %s latency samples" (List.length quiet)
          (String.concat "+" (List.map (fun s -> string_of_int (List.length (lats s))) quiet))
      in
      report "ops_per_s" "1/s" (median ops) ~samples;
      report "latency_p50_ms" "ms" (median p50) ~samples;
      report "latency_p99_ms" "ms" (median p99) ~samples;
      metric "cpu_ms_per_op" "ms" (median cpu_adjusted);
      metric "setup_s" "s" (median setups_adjusted);
      metric "peak_rss_mb" "MB" (median rss)
  | Some emit ->
      let last =
        match List.rev s0.polls with
        | { Load.line = Some l; _ } :: _ -> parse_line l
        | _ -> None
      in
      let num path = match last with Some j -> stats_number path j | None -> Float.nan in
      let hits = num [ "registry"; "hits" ] and misses = num [ "registry"; "misses" ] in
      let poll_ms k = match List.nth_opt s0.polls k with Some x -> latency_ms x | None -> Float.nan in
      emit
        {
          busy_share = num [ "telemetry"; "wall_seconds" ] /. s0.conversation_wall;
          hit_rate = hits /. Float.max 1.0 (hits +. misses);
          entries = num [ "registry"; "entries" ];
          records = num [ "telemetry"; "solves" ];
          stats_first_ms = poll_ms 0;
          stats_last_ms = poll_ms 1;
          combines;
          sweep = None;
        });
  (t.attempted, t.failed)

let bits (m : Measures.t) =
  Array.to_list
    (Array.concat
       (Array.to_list
          (Array.map
             (fun (c : Measures.per_class) ->
               [| Int64.bits_of_float c.Measures.non_blocking; Int64.bits_of_float c.Measures.concurrency |])
             m.Measures.per_class)))

(* What is kept of one repetition of the plan. *)
type plan_rep = {
  wall : float;
  steal : float;
  cpu : float;  (** this process's CPU seconds *)
  points : int;
  mva : int;  (** points solved by Mva *)
  hits : int;  (** points answered from the sweep cache *)
  incremental : int;
  large : int;  (** points at cap >= 256 *)
  point_wall : float;  (** summed per-point wall seconds *)
  latencies : float list;  (** per-point wall, ms *)
}

let run_sweep ~dir ~seed ~seconds ~traced =
  let groups, models = Gen.sweep_plan seed in
  let traced_layers =
    if traced then
      Some
        (layer_metrics ~run_dir:dir ~workload:"sweep-plan" ~lines:[] ~window:1
           ~shapes:(List.map (fun (_, _, loads) -> List.hd loads) groups))
    else None
  in
  (* The set-up is a rebuild of the whole plan: every point's model and
     Sweep.point, validation included.  One rebuild takes well under a
     millisecond, so a sample times 100 of them, from a collected heap.
     A sample is taken before every plan, so the samples spread over the
     whole run; setup_s is the steal-adjusted CPU time of one rebuild,
     the median over all of them. *)
  let self_cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let setup_sample () =
    Gc.full_major ();
    let t0 = now () and steal0 = Load.steal_s () and c0 = self_cpu () in
    for _ = 1 to 100 do
      ignore (Sys.opaque_identity (Gen.rebuild_points models))
    done;
    ((self_cpu () -. c0) /. 100.0, steal_share ~steal0 ~wall:(now () -. t0))
  in
  let points = Gen.plan_points models in
  let domains = Pool.recommended_domains () in
  let t = tally () in
  let finite (m : Measures.t) =
    Array.for_all
      (fun (c : Measures.per_class) -> Float.is_finite c.Measures.non_blocking && Float.is_finite c.Measures.concurrency)
      m.Measures.per_class
  in
  (* Every repetition must reproduce the first bit for bit, with finite
     measures.  Each is checked as soon as it ends and only its summary
     is kept, so the process's peak RSS does not grow with the number of
     plans a run gets through. *)
  let check_rep k first outcomes =
    Array.iteri
      (fun i (o : Sweep.outcome) ->
        let m = Sweep.measures o in
        let what = Printf.sprintf "rep %d point %d (%s)" k i o.Sweep.point.Sweep.label in
        if not (finite m) then record t ~daemon_died:false ~what (Some (Oracle.Nan "measure"))
        else if bits m <> bits (Sweep.measures first.(i)) then
          record t ~daemon_died:false ~what (Some (Oracle.Mismatch "differs from the first repetition"))
        else record t ~daemon_died:false ~what None)
      outcomes
  in
  let count f outcomes = Array.fold_left (fun acc o -> if f o then acc + 1 else acc) 0 outcomes in
  let summary outcomes ~wall ~steal ~cpu =
    {
      wall;
      steal;
      cpu;
      points = Array.length outcomes;
      mva = count (fun (o : Sweep.outcome) -> o.Sweep.solution.Solver.algorithm = Solver.Mean_value) outcomes;
      hits = count (fun (o : Sweep.outcome) -> o.Sweep.from_cache) outcomes;
      incremental = count (fun (o : Sweep.outcome) -> o.Sweep.from_incremental) outcomes;
      large = count (fun (o : Sweep.outcome) -> Model.capacity o.Sweep.point.Sweep.model >= 256) outcomes;
      point_wall = Array.fold_left (fun acc (o : Sweep.outcome) -> acc +. o.Sweep.wall_seconds) 0.0 outcomes;
      latencies = Array.to_list (Array.map (fun (o : Sweep.outcome) -> o.Sweep.wall_seconds *. 1e3) outcomes);
    }
  in
  let t0 = now () in
  let first = ref None and reps = ref [] and setups = ref [] and gc_first = ref (0, 0, 0.0) in
  while !reps = [] || now () -. t0 < seconds do
    setups := setup_sample () :: !setups;
    let r0 = now () and steal0 = Load.steal_s () and cpu0 = self_cpu () and g0 = Gc.quick_stat () in
    let outcomes = Sweep.run points in
    let wall = now () -. r0 in
    let cpu = self_cpu () -. cpu0 and steal = steal_share ~steal0 ~wall in
    let first =
      match !first with
      | Some f -> f
      | None ->
          let g1 = Gc.quick_stat () in
          gc_first :=
            ( g1.Gc.minor_collections - g0.Gc.minor_collections,
              g1.Gc.major_collections - g0.Gc.major_collections,
              top_heap_mb () );
          first := Some outcomes;
          outcomes
    in
    check_rep (List.length !reps) first outcomes;
    reps := summary outcomes ~wall ~steal ~cpu :: !reps
  done;
  let wall = now () -. t0 in
  let rss = Load.peak_rss_mb "self" in
  let reps = List.rev !reps and setups = List.rev !setups in
  let first = Option.get !first in
  (* A seeded sample of points, one per (size, R), is checked against
     the oracle. *)
  let rng = Random.State.make [| seed; 29 |] in
  let per_group = Gen.plan_loads in
  List.iteri
    (fun g (_, _, _) ->
      let i = (g * per_group) + Random.State.int rng per_group in
      let o = first.(i) in
      let model = o.Sweep.point.Sweep.model in
      let e = Oracle.expect model ~weights:(Array.make (Model.num_classes model) 1.0) in
      let m = Sweep.measures o in
      let result =
        try
          Array.iteri
            (fun r (c : Measures.per_class) ->
              Oracle.check_value (Printf.sprintf "class %d E_r" r) ~served:c.Measures.concurrency
                ~expected:e.Oracle.concurrency.(r);
              if o.Sweep.solution.Solver.algorithm <> Solver.Mean_value then
                Oracle.check_value (Printf.sprintf "class %d B_r" r) ~served:c.Measures.non_blocking
                  ~expected:e.Oracle.non_blocking.(r))
            m.Measures.per_class;
          None
        with Oracle.Fail f -> Some f
      in
      record t ~daemon_died:false ~what:(Printf.sprintf "oracle sample %s" o.Sweep.point.Sweep.label) result)
    groups;
  let total f = List.fold_left (fun acc r -> acc + f r) 0 reps in
  let n = total (fun r -> r.points) in
  let share k = float_of_int k /. float_of_int (max 1 n) in
  say "sweep-plan: %d points per plan, %d plans in %.3f s on %d domains" (List.length points)
    (List.length reps) wall domains;
  say "mix: mva points %.3f  convolution points %.3f  cache hits %.3f  points at cap>=256 %.3f"
    (share (total (fun r -> r.mva)))
    (share (n - total (fun r -> r.mva)))
    (share (total (fun r -> r.hits)))
    (share (total (fun r -> r.large)));
  report_tally t;
  let quiet = quieter_half (fun r -> r.steal) reps in
  let lat = List.concat_map (fun r -> r.latencies) quiet in
  let per_plan f = List.map f quiet in
  say "host steal per plan (%%): %s"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.1f" (100.0 *. r.steal)) reps));
  say "the quieter half: %d plans, %d latency samples (per point)" (List.length quiet) (List.length lat);
  say "set-up: CPU s per plan rebuild (%d points), one sample of 100 before each plan: %s"
    (List.length models)
    (String.concat " " (List.map (fun (c, _) -> Printf.sprintf "%.4g" c) setups));
  let setups = List.map (fun (c, steal) -> steal_adjusted ~steal c) setups in
  let cpu_per_point r = 1e3 *. r.cpu /. float_of_int r.points in
  say "CPU ms per point, per plan: %s"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.4g" (cpu_per_point r)) reps));
  say "cpu_ms_per_op, setup_s: steal-adjusted CPU time, median over all %d plans and set-up samples"
    (List.length reps);
  (match traced_layers with
  | None ->
      let samples =
        Printf.sprintf "%d plans; %d latency samples" (List.length quiet) (List.length lat)
      in
      report "ops_per_s" "1/s" (median (per_plan (fun r -> float_of_int r.points /. r.wall))) ~samples;
      report "latency_p50_ms" "ms" (median lat) ~samples;
      report "latency_p99_ms" "ms" (percentile 0.99 lat) ~samples;
      metric "cpu_ms_per_op" "ms" (median (List.map (fun r -> steal_adjusted ~steal:r.steal (cpu_per_point r)) reps));
      metric "setup_s" "s" (median setups);
      metric "peak_rss_mb" "MB" rss
  | Some emit ->
      let point_wall = List.fold_left (fun acc r -> acc +. r.point_wall) 0.0 reps in
      let gc_minor, gc_major, gc_top_heap_mb = !gc_first in
      emit
        {
          busy_share = 0.0;
          hit_rate = 0.0;
          entries = 0.0;
          records = 0.0;
          stats_first_ms = 0.0;
          stats_last_ms = 0.0;
          combines = Layers.combines ();
          sweep =
            Some
              {
                cache_hit_rate = share (total (fun r -> r.hits));
                incremental_share = share (total (fun r -> r.incremental));
                pool_efficiency = point_wall /. (float_of_int domains *. wall);
                gc_minor;
                gc_major;
                gc_top_heap_mb;
              };
        });
  (t.attempted, t.failed)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and traced = ref 0 in
  let exe = ref "" and dir = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int traced, "0|1 end-to-end or per-layer metrics");
      ("--serve-exe", Arg.Set_string exe, "PATH the crossbar_serve executable");
      ("--run-dir", Arg.Set_string dir, "DIR sockets, daemon logs and traces");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness.exe --workload NAME --seed N --seconds S --trace 0|1 --serve-exe PATH --run-dir DIR";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let traced = !traced = 1 in
  let serve w =
    (* A large minor heap keeps the load generator's own collections
       rare and short, so they steal little CPU from the daemon it
       measures.  The daemon keeps the runtime defaults, and so does
       sweep-plan, where this process is the one measured. *)
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8_388_608; space_overhead = 200 };
    run_serve w ~exe:!exe ~dir:!dir ~seed:!seed ~seconds:!seconds ~traced
  in
  let attempted, failed =
    try
      match !workload with
      | "serve-admission" -> serve (Gen.serve_admission !seed)
      | "serve-large" -> serve (Gen.serve_large !seed)
      | "serve-large-defects" -> serve (Gen.serve_large ~defects:true !seed)
      | "sweep-plan" -> run_sweep ~dir:!dir ~seed:!seed ~seconds:!seconds ~traced
      | w ->
          prerr_endline ("unknown workload " ^ w);
          exit 2
    with Oracle.Oracle_disagrees msg ->
      prerr_endline ("the oracle's two halves disagree, so no answer can be judged: " ^ msg);
      exit 3
  in
  finish ~attempted ~failed
