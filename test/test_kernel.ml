(* The combine kernels are the solver's inner loop.  The separable
   kernel agrees with the reference combine ([Convolution.combine_naive],
   which builds the O(cap^2) weight grids the solver no longer keeps) to
   a relative 1e-12 per entry, in every rescaling regime, stride pair and
   rectangular shape; and it is bitwise-invisible to everything around
   it — tile sizes, domain counts, banded vs sequential runs and
   arena-recycled storage all give bit-identical results.  These suites
   pin that contract and the zero-allocation arena plateau. *)

module Conv = Crossbar.Convolution
module Tree = Crossbar.Convolution.Factor_tree
module Lattice = Crossbar.Lattice
module Model = Crossbar.Model
module Traffic = Crossbar.Traffic

let bits = Int64.bits_of_float
let floats_identical a b = Int64.equal (bits a) (bits b)

let check_bits label a b =
  if not (floats_identical a b) then
    Alcotest.failf "%s: %.17g and %.17g differ in bits" label a b

(* ---------- operand construction ---------- *)

(* A profile with entries at multiples of [stride] (the invariant class
   factors satisfy): entry [k stride] is a mantissa in [0.05, 0.95]
   times [2^(mag + slope k)], so [mag] of a few thousand puts every
   entry beyond one double's range and [slope] spreads the entries over
   hundreds of binary orders, as the class factors of a hot solve do.
   Mantissas come from a splitmix-style integer hash of (seed, u), so
   operands are reproducible without threading a generator through
   qcheck shrink. *)
let hashed_unit seed u =
  let h = ref (Int64.of_int ((seed * 0x9e3779b9) + (u * 0x85ebca6b))) in
  h := Int64.mul !h 0xff51afd7ed558ccdL;
  h := Int64.logxor !h (Int64.shift_right_logical !h 33);
  let mantissa = Int64.to_float (Int64.logand !h 0xfffffL) in
  0.05 +. (0.9 *. (mantissa /. 1048576.))

let make_profile ?(slope = 0) ~cap ~stride ~mag seed =
  let l = Lattice.create ~stride ~capacity:cap () in
  for k = 0 to cap / stride do
    Lattice.set_scaled l (k * stride) (hashed_unit seed k) (mag + (slope * k))
  done;
  l

let context ?tile ?threshold ?domains cap =
  Conv.context_of ?tile ?combine_threshold:threshold ?band_domains:domains
    ~inputs:cap ~outputs:(cap + 3) ()

let check_same_lattice label reference candidate =
  Helpers.check_int (label ^ ": capacity") (Lattice.capacity reference)
    (Lattice.capacity candidate);
  Helpers.check_int (label ^ ": stride") (Lattice.stride reference)
    (Lattice.stride candidate);
  for u = 0 to Lattice.capacity reference do
    check_bits
      (Printf.sprintf "%s: entry %d" label u)
      (Lattice.mantissa reference u)
      (Lattice.mantissa candidate u);
    Helpers.check_int
      (Printf.sprintf "%s: exponent %d" label u)
      (Lattice.exponent reference u)
      (Lattice.exponent candidate u)
  done

(* Entry [u] of [l] and of [l'] as two doubles against the larger one's
   binary exponent, so entries beyond one double's range compare. *)
let aligned_entries l l' u =
  let top x =
    let m = Lattice.mantissa x u in
    if m = 0. then min_int else snd (Float.frexp m) + Lattice.exponent x u
  in
  let e = max (top l) (top l') in
  let at x = Float.ldexp (Lattice.mantissa x u) (Lattice.exponent x u - e) in
  if e = min_int then (0., 0.) else (at l, at l')

(* The separable kernel regroups each output's sum, so it agrees with
   the reference combine to rounding rather than bit for bit. *)
let combine_rtol = 1e-12

let check_close_lattice label reference candidate =
  Helpers.check_int (label ^ ": capacity") (Lattice.capacity reference)
    (Lattice.capacity candidate);
  Helpers.check_int (label ^ ": stride") (Lattice.stride reference)
    (Lattice.stride candidate);
  for u = 0 to Lattice.capacity reference do
    let expected, actual = aligned_entries reference candidate u in
    let gap = Float.abs (expected -. actual) in
    if gap > combine_rtol *. Float.max (Float.abs expected) (Float.abs actual)
    then
      Alcotest.failf "%s: entry %d: %.17g vs %.17g (relative gap %.3g)" label
        u expected actual
        (gap /. Float.max (Float.abs expected) (Float.abs actual))
  done

let check_combine_matches_naive label ctx a b =
  check_close_lattice label (Conv.combine_naive ctx a b) (Conv.combine ctx a b)

(* ---------- separable kernel vs the reference combine ---------- *)

let operand_gen =
  let open QCheck2.Gen in
  let* cap = int_range 4 40 in
  let* tile = int_range 1 17 in
  let* sa = oneofl [ 1; 1; 1; 2; 3 ] in
  let* sb = oneofl [ 1; 1; 2; 3 ] in
  (* mag 0: plain regime.  mag 900: the operands' product leaves the
     double range.  mag -3000 and 3000: every entry does.  Slopes of 60
     bits per entry put one operand's span over 900 binary orders — two
     such spans' low entries multiply below the double range unless the
     combine's tilt flattens them — and opposite or unequal slopes leave
     a residual tilt. *)
  let* mag = oneofl [ 0; 0; 900; -3000; 3000 ] in
  let slopes = [ 0; 0; 12; -12; 60; -60 ] in
  let* slope_a = oneofl slopes in
  let* slope_b = oneofl slopes in
  let* seed = int_range 1 1_000_000 in
  return (cap, tile, sa, sb, mag, (slope_a, slope_b), seed)

let combine_matches_naive =
  QCheck2.Test.make ~name:"combine agrees with combine_naive to 1e-12"
    ~count:120 operand_gen
    (fun (cap, tile, sa, sb, mag, (slope_a, slope_b), seed) ->
      let ctx = context ~tile cap in
      let a = make_profile ~slope:slope_a ~cap ~stride:sa ~mag seed in
      let b = make_profile ~slope:slope_b ~cap ~stride:sb ~mag (seed + 1) in
      let label =
        Printf.sprintf "cap=%d tile=%d sa=%d sb=%d mag=%d slopes=%d,%d" cap
          tile sa sb mag slope_a slope_b
      in
      check_combine_matches_naive label ctx a b;
      (* The tile edge only blocks the loops: per output, the summation
         order is fixed by the switch shape alone. *)
      check_same_lattice (label ^ " vs default tile")
        (Conv.combine (context cap) a b)
        (Conv.combine ctx a b);
      true)

(* Capacities straddling the tile boundary: cap mod tile in {-1, 0, +1}
   exercises the partial final block of both tile loops. *)
let test_tile_boundaries () =
  let tile = 8 in
  List.iter
    (fun cap ->
      List.iter
        (fun mag ->
          let ctx = context ~tile cap in
          let a = make_profile ~cap ~stride:1 ~mag 11 in
          let b = make_profile ~cap ~stride:1 ~mag 12 in
          let label =
            Printf.sprintf "boundary cap=%d tile=%d mag=%d" cap tile mag
          in
          check_combine_matches_naive label ctx a b;
          check_same_lattice (label ^ " vs tile 1")
            (Conv.combine (context ~tile:1 cap) a b)
            (Conv.combine ctx a b))
        [ 0; 3000 ])
    [ 15; 16; 17 ]

let test_degenerate_tiles () =
  let cap = 13 in
  let a = make_profile ~cap ~stride:1 ~mag:0 21 in
  let b = make_profile ~cap ~stride:2 ~mag:0 22 in
  let reference = Conv.combine (context ~tile:1 cap) a b in
  List.iter
    (fun tile ->
      let label = Printf.sprintf "tile=%d" tile in
      check_combine_matches_naive label (context ~tile cap) a b;
      check_same_lattice (label ^ " vs tile 1") reference
        (Conv.combine (context ~tile cap) a b))
    [ 1; 13; 64; 1000 ]

(* A switch with N1 N2 >= 2^22 rebases over spans of 8 rather than 16;
   a 64 x 70000 rectangle reaches that regime at a capacity the
   reference combine's grids can afford. *)
let test_narrow_spans () =
  let cap = 64 in
  List.iter
    (fun (sa, sb, mag) ->
      let ctx = Conv.context_of ~inputs:cap ~outputs:70_000 () in
      let a = make_profile ~cap ~stride:sa ~mag 71 in
      let b = make_profile ~cap ~stride:sb ~mag 72 in
      check_combine_matches_naive
        (Printf.sprintf "64x70000 sa=%d sb=%d mag=%d" sa sb mag)
        ctx a b)
    [ (1, 1, 0); (1, 2, 900); (3, 2, -3000) ]

(* ---------- banded parallel dispatch ---------- *)

let test_banded_determinism () =
  let cap = 33 in
  List.iter
    (fun mag ->
      let a = make_profile ~cap ~stride:1 ~mag 31 in
      let b = make_profile ~cap ~stride:1 ~mag 32 in
      let sequential = context ~domains:1 cap in
      let reference = Conv.combine sequential a b in
      check_combine_matches_naive
        (Printf.sprintf "sequential mag=%d" mag)
        sequential a b;
      List.iter
        (fun domains ->
          (* threshold 1: every combine runs banded. *)
          let ctx = context ~threshold:1 ~domains cap in
          let banded = Conv.combine ctx a b in
          check_same_lattice
            (Printf.sprintf "domains=%d mag=%d" domains mag)
            reference banded;
          if domains > 1 then
            Helpers.check_int
              (Printf.sprintf "domains=%d: combine was banded" domains)
              1 (Conv.banded_total ctx))
        [ 1; 2; 4 ];
      Helpers.check_int "sequential context never bands" 0
        (Conv.banded_total sequential);
      ignore (Conv.combine sequential a b);
      Helpers.check_int "below threshold still never bands" 0
        (Conv.banded_total sequential))
    [ 0; 3000 ]

let test_banded_strided () =
  let cap = 29 in
  let a = make_profile ~cap ~stride:2 ~mag:0 41 in
  let b = make_profile ~cap ~stride:3 ~mag:0 42 in
  let reference = Conv.combine (context ~domains:1 cap) a b in
  List.iter
    (fun domains ->
      let ctx = context ~threshold:1 ~domains cap in
      check_same_lattice
        (Printf.sprintf "strided domains=%d" domains)
        reference (Conv.combine ctx a b))
    [ 2; 4 ]

(* More bands than outputs: the trailing bands are empty and must not
   touch the result (or crash). *)
let test_more_bands_than_outputs () =
  let cap = 3 in
  let a = make_profile ~cap ~stride:1 ~mag:0 51 in
  let b = make_profile ~cap ~stride:1 ~mag:0 52 in
  let ctx = context ~threshold:1 ~domains:8 cap in
  check_same_lattice "8 bands over 4 outputs"
    (Conv.combine (context ~domains:1 cap) a b)
    (Conv.combine ctx a b)

(* ---------- separable weights: O(cap) contexts ---------- *)

(* This process's peak resident set in kB, from /proc/self/status;
   [None] where that file does not exist. *)
let peak_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; value ] ->
              Scanf.sscanf_opt (String.trim value) "%d kB" Fun.id
          | _ -> None)
        (String.split_on_char '\n' text)

(* A 12000 x 12000 switch, where one (cap+1)^2 weight grid alone would
   be 1.15 GB: the solve keeps O(cap) tables and profiles, so the
   process's peak resident set must barely move. *)
let test_huge_switch_without_grids () =
  let before = peak_rss_kb () in
  let model =
    Model.square ~size:12_000 ~classes:[ Helpers.poisson ~name:"one" 0.5 ]
  in
  let solved = Conv.solve model in
  let measures = Conv.measures solved in
  Helpers.check_bool "busy ports finite and positive" true
    (Float.is_finite measures.Crossbar.Measures.busy_ports
    && measures.Crossbar.Measures.busy_ports > 0.);
  Array.iter
    (fun (c : Crossbar.Measures.per_class) ->
      Helpers.check_bool "blocking finite" true
        (Float.is_finite c.Crossbar.Measures.blocking);
      Helpers.check_bool "concurrency finite" true
        (Float.is_finite c.Crossbar.Measures.concurrency))
    measures.Crossbar.Measures.per_class;
  Helpers.check_bool "log G finite" true
    (Float.is_finite (Conv.log_normalization solved));
  match (before, peak_rss_kb ()) with
  | Some before, Some after ->
      if after - before > 64 * 1024 then
        Alcotest.failf "peak RSS grew by %d kB solving a 12000-port switch"
          (after - before)
  | _ -> ()

(* ---------- persistent band-worker pool ---------- *)

module Band_pool = Crossbar.Band_pool

let test_pool_runs_every_band () =
  let bands = 4 in
  let hit = Array.make bands 0 in
  Band_pool.run ~bands (fun i -> hit.(i) <- hit.(i) + 1);
  Array.iteri
    (fun i n -> Helpers.check_int (Printf.sprintf "band %d ran once" i) 1 n)
    hit;
  Helpers.check_bool "workers stay resident between dispatches" true
    (Band_pool.size () >= bands - 1)

let test_pool_shutdown_and_rewarm () =
  Band_pool.run ~bands:3 (fun _ -> ());
  Helpers.check_bool "warm before shutdown" true (Band_pool.size () >= 2);
  Band_pool.shutdown ();
  Helpers.check_int "shutdown empties the pool" 0 (Band_pool.size ());
  (* The next dispatch re-warms transparently: same API, fresh workers. *)
  let hit = Array.make 3 false in
  Band_pool.run ~bands:3 (fun i -> hit.(i) <- true);
  Helpers.check_bool "re-warmed dispatch covers every band" true
    (Array.for_all Fun.id hit);
  Helpers.check_bool "workers respawned" true (Band_pool.size () >= 2)

let test_pool_worker_exception () =
  (match Band_pool.run ~bands:2 (fun i -> if i = 1 then failwith "band boom")
   with
  | () -> Alcotest.fail "worker exception was swallowed"
  | exception Failure message ->
      Helpers.check_bool "message survives the domain hop" true
        (String.equal message "band boom"));
  (* A failed dispatch must leave the pool serviceable. *)
  let hit = Array.make 2 false in
  Band_pool.run ~bands:2 (fun i -> hit.(i) <- true);
  Helpers.check_bool "pool usable after a failure" true
    (Array.for_all Fun.id hit)

let test_pool_caller_band_wins () =
  match
    Band_pool.run ~bands:2 (fun i ->
        if i = 0 then failwith "caller band" else failwith "worker band")
  with
  | () -> Alcotest.fail "exceptions were swallowed"
  | exception Failure message ->
      Helpers.check_bool "band 0 (the caller) outranks worker bands" true
        (String.equal message "caller band")

let test_pool_degenerate () =
  Band_pool.shutdown ();
  let ran = ref false in
  Band_pool.run ~bands:1 (fun i ->
      Helpers.check_int "inline band index" 0 i;
      ran := true);
  Helpers.check_bool "bands=1 runs inline" true !ran;
  Helpers.check_int "bands=1 spawns no workers" 0 (Band_pool.size ());
  Helpers.check_raises_invalid "bands=0 rejected" (fun () ->
      Band_pool.run ~bands:0 (fun _ -> ()))

let test_pool_idle_workers_retire () =
  (* Workers that serve no fan-out during a whole major GC cycle retire
     (a full major GC ends at least two cycles); the next dispatch starts
     them again.  Shut down first so this domain arms the alarm. *)
  Band_pool.shutdown ();
  Band_pool.run ~bands:2 (fun _ -> ());
  Helpers.check_int "one worker parked" 1 (Band_pool.size ());
  Gc.full_major ();
  Gc.full_major ();
  Helpers.check_int "idle workers retired" 0 (Band_pool.size ());
  let hit = Array.make 2 false in
  Band_pool.run ~bands:2 (fun i -> hit.(i) <- true);
  Helpers.check_bool "next dispatch covers every band" true
    (Array.for_all Fun.id hit);
  Helpers.check_int "worker started again" 1 (Band_pool.size ())

(* Operand capacities straddling the default threshold: below it the
   combine stays sequential, at or above it the pool dispatch runs — and
   either way the result must match the single-band kernel bit for
   bit. *)
let threshold_crossover_gen =
  let open QCheck2.Gen in
  let* offset = int_range (-6) 6 in
  let* domains = int_range 2 4 in
  let* mag = oneofl [ 0; 3000 ] in
  let* seed = int_range 1 1_000_000 in
  return (Conv.default_combine_threshold + offset, domains, mag, seed)

let banded_bit_identity_at_threshold =
  QCheck2.Test.make
    ~name:"pool-banded combine is bit-identical around the default threshold"
    ~count:12 threshold_crossover_gen (fun (cap, domains, mag, seed) ->
      let threshold = Conv.default_combine_threshold in
      let ctx = context ~threshold ~domains cap in
      let a = make_profile ~cap ~stride:1 ~mag seed in
      let b = make_profile ~cap ~stride:1 ~mag (seed + 1) in
      let label =
        Printf.sprintf "cap=%d domains=%d mag=%d" cap domains mag
      in
      check_same_lattice (label ^ " vs one band")
        (Conv.combine (context ~domains:1 cap) a b)
        (Conv.combine ctx a b);
      Helpers.check_int
        (label ^ ": banded exactly when cap crosses the threshold")
        (if cap >= threshold then 1 else 0)
        (Conv.banded_total ctx);
      true)

(* ---------- solver-level bit identity with recycling ---------- *)

let check_solved_identical label reference candidate =
  check_bits (label ^ ": log G")
    (Conv.log_normalization reference)
    (Conv.log_normalization candidate);
  Helpers.check_int (label ^ ": rescales")
    (Conv.rescale_count reference)
    (Conv.rescale_count candidate);
  let mr = Conv.measures reference and mc = Conv.measures candidate in
  check_bits (label ^ ": busy ports") mr.Crossbar.Measures.busy_ports
    mc.Crossbar.Measures.busy_ports;
  Array.iteri
    (fun r (cr : Crossbar.Measures.per_class) ->
      let cc = mc.Crossbar.Measures.per_class.(r) in
      check_bits
        (Printf.sprintf "%s: class %d blocking" label r)
        cr.Crossbar.Measures.blocking cc.Crossbar.Measures.blocking;
      check_bits
        (Printf.sprintf "%s: class %d concurrency" label r)
        cr.Crossbar.Measures.concurrency cc.Crossbar.Measures.concurrency)
    mr.Crossbar.Measures.per_class

let nudge_model model step =
  (* Cycle which class moves so carries and multi-class deltas both
     happen across the chain.  The bernoulli class (index 2 in
     [Helpers.mixed_model]) only accepts alphas that keep the source
     count integral, so its nudges step in multiples of the per-source
     rate. *)
  let r = step mod Model.num_classes model in
  let alpha =
    if r = 2 then 0.08 *. float_of_int (1 + (step mod 4))
    else 0.1 +. (0.03 *. float_of_int step)
  in
  Model.map_class model r (fun traffic -> Traffic.with_alpha traffic alpha)

let test_update_recycle_bit_identity () =
  let model0 = Helpers.mixed_model ~inputs:6 ~outputs:5 in
  let chained = ref (Conv.solve model0) in
  let model = ref model0 in
  for step = 1 to 12 do
    model := nudge_model !model step;
    (* The chain recycles the tree it is about to drop; the fresh build
       is the oracle. *)
    chained := Conv.solve_delta ~recycle:true ~previous:!chained !model;
    check_solved_identical
      (Printf.sprintf "step %d" step)
      (Conv.solve !model) !chained
  done

let test_leave_one_out_stable_across_sweeps () =
  let model = Helpers.mixed_model ~inputs:6 ~outputs:6 in
  let tree = Conv.tree (Conv.solve model) in
  let snapshot =
    Array.map
      (fun l ->
        let copy = Lattice.create ~capacity:(Lattice.capacity l) () in
        for u = 0 to Lattice.capacity l do
          Lattice.set_scaled copy u (Lattice.mantissa l u)
            (Lattice.exponent l u)
        done;
        copy)
      (Tree.leave_one_out tree)
  in
  (* The second sweep draws its intermediates from the first sweep's
     recycled nodes; the complements must not move a bit. *)
  let again = Tree.leave_one_out tree in
  Array.iteri
    (fun r copy ->
      check_same_lattice (Printf.sprintf "complement %d" r) copy again.(r))
    snapshot

let test_arena_reuse_plateau () =
  let model0 = Helpers.mixed_model ~inputs:8 ~outputs:8 in
  let chained = ref (Conv.solve model0) in
  let arena = Conv.arena (Tree.context (Conv.tree !chained)) in
  let model = ref model0 in
  let warm = 3 in
  let created_after_warmup = ref 0 in
  for step = 1 to 12 do
    model := nudge_model !model step;
    chained := Conv.solve_delta ~recycle:true ~previous:!chained !model;
    if step = warm then created_after_warmup := Conv.Arena.created arena
  done;
  (* Recycled updates release as many profiles as they acquire, so once
     the free list is primed the solver creates nothing new: the whole
     steady-state loop runs in recycled Bigarray storage. *)
  Helpers.check_int "no profile created after warm-up" !created_after_warmup
    (Conv.Arena.created arena);
  Helpers.check_bool "warmed-up updates are served from the free list" true
    (Conv.Arena.reused arena > 0)

(* A domain keeps the arenas of its 8 most recently used contexts: one
   pushed out by 9 others, and no longer referenced, is garbage along
   with its free list. *)
let test_evicted_context_arena_collected () =
  let weak = Weak.create 1 in
  let use_once () =
    let ctx = Conv.context_of ~inputs:6 ~outputs:6 () in
    Weak.set weak 0 (Some (Conv.arena ctx))
  in
  (Sys.opaque_identity use_once) ();
  for i = 1 to 9 do
    let other = Conv.context_of ~inputs:(6 + i) ~outputs:6 () in
    ignore (Conv.arena other : Conv.Arena.t)
  done;
  Gc.full_major ();
  Helpers.check_bool "evicted context's arena collected" false
    (Weak.check weak 0)

(* ---------- knob validation ---------- *)

let test_knob_validation () =
  (* Every rejection names the offending knob and its value — a deploy
     log must say what was wrong, not just that something was. *)
  Helpers.check_invalid_contains "tile 0" ~substring:"tile=0" (fun () ->
      Conv.context_of ~tile:0 ~inputs:4 ~outputs:4 ());
  Helpers.check_invalid_contains "threshold 0"
    ~substring:"combine_threshold=0" (fun () ->
      Conv.context_of ~combine_threshold:0 ~inputs:4 ~outputs:4 ());
  Helpers.check_invalid_contains "band domains 0" ~substring:"band_domains=0"
    (fun () -> Conv.context_of ~band_domains:0 ~inputs:4 ~outputs:4 ());
  (* The environment override obeys the same contract as
     CROSSBAR_DOMAINS: a malformed deploy-time value fails loudly. *)
  Unix.putenv "CROSSBAR_COMBINE_THRESHOLD" "not-a-number";
  Helpers.check_invalid_contains "malformed env threshold"
    ~substring:"CROSSBAR_COMBINE_THRESHOLD=\"not-a-number\"" (fun () ->
      Conv.context_of ~inputs:4 ~outputs:4 ());
  Unix.putenv "CROSSBAR_COMBINE_THRESHOLD" "0";
  Helpers.check_invalid_contains "non-positive env threshold"
    ~substring:"CROSSBAR_COMBINE_THRESHOLD=0" (fun () ->
      Conv.context_of ~inputs:4 ~outputs:4 ());
  (* An explicit knob bypasses the environment entirely. *)
  ignore (Conv.context_of ~combine_threshold:7 ~inputs:4 ~outputs:4 ());
  Unix.putenv "CROSSBAR_COMBINE_THRESHOLD" " 5 ";
  let ctx = Conv.context_of ~band_domains:2 ~inputs:8 ~outputs:8 () in
  let a = make_profile ~cap:8 ~stride:1 ~mag:0 61 in
  let b = make_profile ~cap:8 ~stride:1 ~mag:0 62 in
  ignore (Conv.combine ctx a b);
  Helpers.check_int "trimmed env threshold bands the combine" 1
    (Conv.banded_total ctx);
  (* Restore the default so later suites in this binary see a clean
     environment (putenv cannot unset). *)
  Unix.putenv "CROSSBAR_COMBINE_THRESHOLD"
    (string_of_int Conv.default_combine_threshold)

let test_domains_knob_validation () =
  (* CROSSBAR_DOMAINS reports its offending value the same way; the
     override feeds both the engine pool and the banded kernel. *)
  let restore =
    match Sys.getenv_opt "CROSSBAR_DOMAINS" with Some v -> v | None -> "2"
  in
  Unix.putenv "CROSSBAR_DOMAINS" "three";
  Helpers.check_invalid_contains "malformed CROSSBAR_DOMAINS"
    ~substring:"CROSSBAR_DOMAINS=\"three\"" (fun () ->
      Crossbar.Domains.recommended ());
  Unix.putenv "CROSSBAR_DOMAINS" "-4";
  Helpers.check_invalid_contains "non-positive CROSSBAR_DOMAINS"
    ~substring:"CROSSBAR_DOMAINS=-4" (fun () ->
      Crossbar.Domains.recommended ());
  Unix.putenv "CROSSBAR_DOMAINS" restore

let () =
  Alcotest.run "kernel"
    [
      ( "tiled kernel",
        [
          Helpers.qcheck combine_matches_naive;
          Helpers.case "tile-boundary capacities" test_tile_boundaries;
          Helpers.case "degenerate tile sizes" test_degenerate_tiles;
          Helpers.case "narrow spans on very large switches" test_narrow_spans;
        ] );
      ( "huge switches",
        [
          Helpers.case "12000x12000 solve without O(cap^2) memory"
            test_huge_switch_without_grids;
        ] );
      ( "banded kernel",
        [
          Helpers.case "bit-identical across domain counts"
            test_banded_determinism;
          Helpers.case "strided operands" test_banded_strided;
          Helpers.case "more bands than outputs" test_more_bands_than_outputs;
          Helpers.qcheck banded_bit_identity_at_threshold;
        ] );
      ( "band pool",
        [
          Helpers.case "every band runs exactly once" test_pool_runs_every_band;
          Helpers.case "shutdown then transparent re-warm"
            test_pool_shutdown_and_rewarm;
          Helpers.case "worker exceptions propagate" test_pool_worker_exception;
          Helpers.case "caller band outranks worker failures"
            test_pool_caller_band_wins;
          Helpers.case "degenerate band counts" test_pool_degenerate;
          Helpers.case "idle workers retire" test_pool_idle_workers_retire;
        ] );
      ( "arena recycling",
        [
          Helpers.case "recycled delta chain matches fresh builds"
            test_update_recycle_bit_identity;
          Helpers.case "leave-one-out stable across sweeps"
            test_leave_one_out_stable_across_sweeps;
          Helpers.case "allocation plateau after warm-up"
            test_arena_reuse_plateau;
          Helpers.case "evicted context's arena is collected"
            test_evicted_context_arena_collected;
        ] );
      ( "knobs",
        [
          Helpers.case "validation and env override" test_knob_validation;
          Helpers.case "CROSSBAR_DOMAINS names its offending value"
            test_domains_knob_validation;
        ] );
    ]
