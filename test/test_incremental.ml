(* Bit-identity of the incremental solve layer.

   The contract under test is exact: Convolution.solve_incremental must
   reproduce Convolution.solve bit for bit — every measure, every log G
   lattice entry, the rescale count — because the sweep cache files both
   under the same key and callers must not be able to tell hits, full
   solves and incremental solves apart.  Likewise Sweep.run with and
   without ~incremental, at any domain count, and run_replications at
   any domain count. *)

module Conv = Crossbar.Convolution
module Model = Crossbar.Model
module Traffic = Crossbar.Traffic
module Solver = Crossbar.Solver
module Measures = Crossbar.Measures
module Sweep = Crossbar_engine.Sweep
module Cache = Crossbar_engine.Cache
module Sim = Crossbar_sim.Simulator

let bits = Int64.bits_of_float
let floats_identical a b = Int64.equal (bits a) (bits b)

let check_bits label a b =
  if not (floats_identical a b) then
    Alcotest.failf "%s: %.17g and %.17g differ in bits" label a b

let check_measures label (a : Measures.t) (b : Measures.t) =
  check_bits (label ^ ".busy_ports") a.Measures.busy_ports
    b.Measures.busy_ports;
  check_bits
    (label ^ ".input_utilization")
    a.Measures.input_utilization b.Measures.input_utilization;
  check_bits
    (label ^ ".output_utilization")
    a.Measures.output_utilization b.Measures.output_utilization;
  Helpers.check_int
    (label ^ ".class count")
    (Array.length a.Measures.per_class)
    (Array.length b.Measures.per_class);
  Array.iteri
    (fun r (ca : Measures.per_class) ->
      let cb = b.Measures.per_class.(r) in
      let field name = Printf.sprintf "%s.class %d.%s" label r name in
      check_bits (field "offered_load") ca.Measures.offered_load
        cb.Measures.offered_load;
      check_bits (field "non_blocking") ca.Measures.non_blocking
        cb.Measures.non_blocking;
      check_bits (field "blocking") ca.Measures.blocking cb.Measures.blocking;
      check_bits (field "concurrency") ca.Measures.concurrency
        cb.Measures.concurrency;
      check_bits (field "throughput") ca.Measures.throughput
        cb.Measures.throughput)
    a.Measures.per_class

(* Compare log G over the whole lattice; entries flushed by dynamic
   rescaling raise Failure on both sides or neither. *)
let check_lattice label model full inc =
  for n1 = 0 to Model.inputs model do
    for n2 = 0 to Model.outputs model do
      let entry t =
        match Conv.log_g t ~inputs:n1 ~outputs:n2 with
        | value -> Ok value
        | exception Failure _ -> Error ()
      in
      match (entry full, entry inc) with
      | Ok a, Ok b ->
          check_bits (Printf.sprintf "%s.log_g(%d,%d)" label n1 n2) a b
      | Error (), Error () -> ()
      | Ok _, Error () | Error (), Ok _ ->
          Alcotest.failf "%s: log_g(%d,%d) flushed on one side only" label n1
            n2
    done
  done

let check_solved label model full inc =
  check_bits
    (label ^ ".log_normalization")
    (Conv.log_normalization full) (Conv.log_normalization inc);
  Helpers.check_int (label ^ ".rescale_count") (Conv.rescale_count full)
    (Conv.rescale_count inc);
  check_measures label (Conv.measures full) (Conv.measures inc);
  check_lattice label model full inc

(* --- property: incremental = full on random models and perturbations --- *)

let perturbed_pair_gen =
  let open QCheck2.Gen in
  let* model = Helpers.random_model_gen in
  let* class_index = int_bound (Model.num_classes model - 1) in
  let* factor = float_range 0.3 3.0 in
  let changed =
    Model.map_class model class_index (fun c -> Traffic.scale_load c factor)
  in
  return (model, class_index, changed)

let prop_incremental_matches_full =
  QCheck2.Test.make ~count:60
    ~name:"solve_incremental bit-identical to solve (random models)"
    perturbed_pair_gen
    (fun (model, class_index, changed) ->
      let previous = Conv.solve model in
      let inc = Conv.solve_incremental ~previous ~class_index changed in
      let full = Conv.solve changed in
      check_solved "random" changed full inc;
      true)

(* Same property in the dynamic-rescaling regime: loads high enough that
   Section 6 rescaling fires (rescale_count > 0) on partial products. *)
let rescaling_pair_gen =
  let open QCheck2.Gen in
  let* size = int_range 24 36 in
  let* rate = float_range 1e8 1e12 in
  let* factor = float_range 0.5 2.0 in
  let classes rate =
    [
      Helpers.poisson ~name:"hot" rate;
      Helpers.pascal ~name:"warm" ~bandwidth:2 ~alpha:0.2 ~beta:0.1 ();
    ]
  in
  let model = Model.square ~size ~classes:(classes rate) in
  let changed =
    Model.map_class model 0 (fun c -> Traffic.scale_load c factor)
  in
  return (model, changed)

let prop_incremental_matches_full_rescaled =
  QCheck2.Test.make ~count:10
    ~name:"solve_incremental bit-identical under dynamic rescaling"
    rescaling_pair_gen
    (fun (model, changed) ->
      let previous = Conv.solve model in
      (* The smaller switches need no rescaling at the low end of the
         rate range; those draws are discarded, not failed. *)
      QCheck2.assume (Conv.rescale_count previous > 0);
      let inc = Conv.solve_incremental ~previous ~class_index:0 changed in
      let full = Conv.solve changed in
      check_solved "rescaled" changed full inc;
      true)

(* --- deterministic cases --- *)

let test_rescale_identity () =
  let model =
    Model.square ~size:32 ~classes:[ Helpers.poisson ~name:"hot" 1e10 ]
  in
  let previous = Conv.solve model in
  Helpers.check_bool "rescaling fired" true (Conv.rescale_count previous > 0);
  let changed = Model.map_class model 0 (fun c -> Traffic.scale_load c 1.5) in
  let inc = Conv.solve_incremental ~previous ~class_index:0 changed in
  let full = Conv.solve changed in
  Helpers.check_bool "rescaling still fires" true (Conv.rescale_count full > 0);
  check_solved "rescale" changed full inc

let test_bandwidth_change () =
  let base =
    Model.square ~size:6
      ~classes:
        [
          Helpers.poisson ~name:"thin" 0.4;
          Helpers.pascal ~name:"wide" ~alpha:0.3 ~beta:0.2 ();
        ]
  in
  let changed =
    Model.map_class base 1 (fun c ->
        Traffic.create ~name:c.Traffic.name ~bandwidth:2 ~alpha:c.Traffic.alpha
          ~beta:c.Traffic.beta ~service_rate:c.Traffic.service_rate ())
  in
  (match Model.single_class_delta base changed with
  | Some 1 -> ()
  | _ -> Alcotest.fail "bandwidth change not detected as a class-1 delta");
  let previous = Conv.solve base in
  let inc = Conv.solve_incremental ~previous ~class_index:1 changed in
  let full = Conv.solve changed in
  check_solved "bandwidth" changed full inc

let test_single_class_delta_identical_is_none () =
  let model = Helpers.mixed_model ~inputs:5 ~outputs:4 in
  Helpers.check_bool "identical models give None" true
    (Model.single_class_delta model model = None)

let test_invalid_arguments () =
  let base =
    Model.square ~size:4
      ~classes:
        [ Helpers.poisson ~name:"a" 0.3; Helpers.poisson ~name:"b" 0.2 ]
  in
  let previous = Conv.solve base in
  Helpers.check_raises_invalid "dimension mismatch" (fun () ->
      let wider =
        Model.create ~inputs:5 ~outputs:4
          ~classes:(Array.to_list (Model.classes base))
      in
      Conv.solve_incremental ~previous ~class_index:0 wider);
  Helpers.check_raises_invalid "two classes changed" (fun () ->
      let both =
        Model.map_class
          (Model.map_class base 0 (fun c -> Traffic.scale_load c 2.0))
          1
          (fun c -> Traffic.scale_load c 2.0)
      in
      Conv.solve_incremental ~previous ~class_index:0 both);
  Helpers.check_raises_invalid "class index out of range" (fun () ->
      Conv.solve_incremental ~previous ~class_index:2 base)

(* --- sweep engine: ~incremental and domain count change nothing --- *)

let load_sweep_points count =
  List.init count (fun i ->
      let load = 0.1 +. (0.05 *. float_of_int i) in
      Sweep.point ~algorithm:Solver.Convolution
        ~label:(Printf.sprintf "load=%.2f" load)
        (Model.square ~size:8
           ~classes:
             [
               Helpers.poisson ~name:"bg" 0.2;
               Helpers.pascal ~name:"swept" ~alpha:load ~beta:(load /. 4.) ();
             ]))

let check_outcomes label (a : Sweep.outcome array) (b : Sweep.outcome array) =
  Helpers.check_int (label ^ ".length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (x : Sweep.outcome) ->
      let y = b.(i) in
      let field name = Printf.sprintf "%s.point %d.%s" label i name in
      check_bits
        (field "log_normalization")
        x.Sweep.solution.Solver.log_normalization
        y.Sweep.solution.Solver.log_normalization;
      Helpers.check_int (field "rescales") x.Sweep.solution.Solver.rescales
        y.Sweep.solution.Solver.rescales;
      check_measures (field "measures") (Sweep.measures x) (Sweep.measures y))
    a

let test_sweep_incremental_bit_identical () =
  let points = load_sweep_points 12 in
  let baseline = Sweep.run ~domains:1 ~cache:(Cache.create ()) points in
  let inc1 =
    Sweep.run ~domains:1 ~cache:(Cache.create ()) ~incremental:true points
  in
  let inc3 =
    Sweep.run ~domains:3 ~cache:(Cache.create ()) ~incremental:true points
  in
  check_outcomes "incremental domains=1" baseline inc1;
  check_outcomes "incremental domains=3" baseline inc3;
  Array.iteri
    (fun i (o : Sweep.outcome) ->
      Helpers.check_bool
        (Printf.sprintf "baseline point %d not incremental" i)
        false o.Sweep.from_incremental)
    baseline;
  List.iter
    (fun (name, outcomes) ->
      Array.iteri
        (fun i (o : Sweep.outcome) ->
          Helpers.check_bool
            (Printf.sprintf "%s point %d from_incremental" name i)
            (i > 0) o.Sweep.from_incremental)
        outcomes)
    [ ("domains=1", inc1); ("domains=3", inc3) ]

(* Chains are no longer restricted to single-class deltas: here every
   point changes BOTH classes relative to its neighbour, and the whole
   run must still chain incrementally and stay bit-identical. *)
let multi_class_sweep_points count =
  List.init count (fun i ->
      let load = 0.1 +. (0.05 *. float_of_int i) in
      Sweep.point ~algorithm:Solver.Convolution
        ~label:(Printf.sprintf "load=%.2f" load)
        (Model.square ~size:8
           ~classes:
             [
               Helpers.poisson ~name:"bg" (0.2 +. (load /. 10.));
               Helpers.pascal ~name:"swept" ~alpha:load ~beta:(load /. 4.) ();
             ]))

let test_sweep_multi_class_chain () =
  let points = multi_class_sweep_points 10 in
  (match points with
  | first :: second :: _ ->
      (match Model.class_delta first.Sweep.model second.Sweep.model with
      | Some [ 0; 1 ] -> ()
      | _ -> Alcotest.fail "expected both classes to change between points")
  | _ -> assert false);
  let baseline = Sweep.run ~domains:1 ~cache:(Cache.create ()) points in
  let inc =
    Sweep.run ~domains:1 ~cache:(Cache.create ()) ~incremental:true points
  in
  check_outcomes "multi-class chain" baseline inc;
  Array.iteri
    (fun i (o : Sweep.outcome) ->
      Helpers.check_bool
        (Printf.sprintf "point %d chains incrementally" i)
        (i > 0) o.Sweep.from_incremental)
    inc

(* --- simulator: replication results independent of domain count --- *)

let check_estimates label (a : Sim.estimate array) (b : Sim.estimate array) =
  Helpers.check_int (label ^ ".length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (x : Sim.estimate) ->
      let y = b.(i) in
      check_bits (Printf.sprintf "%s.%d.point" label i) x.Sim.point y.Sim.point;
      check_bits
        (Printf.sprintf "%s.%d.halfwidth" label i)
        x.Sim.halfwidth y.Sim.halfwidth)
    a

let test_replications_domain_independent () =
  let model = Helpers.mixed_model ~inputs:5 ~outputs:4 in
  let config =
    {
      (Sim.default_config model) with
      horizon = 500.;
      warmup = 50.;
      batches = 3;
    }
  in
  let sequential = Sim.run_replications ~domains:1 ~replications:4 config in
  let parallel = Sim.run_replications ~domains:3 ~replications:4 config in
  Helpers.check_int "replications" sequential.Sim.replications
    parallel.Sim.replications;
  check_estimates "time_congestion" sequential.Sim.rep_time_congestion
    parallel.Sim.rep_time_congestion;
  check_estimates "call_congestion" sequential.Sim.rep_call_congestion
    parallel.Sim.rep_call_congestion;
  check_estimates "concurrency" sequential.Sim.rep_concurrency
    parallel.Sim.rep_concurrency

let () =
  Alcotest.run "incremental"
    [
      ( "bit-identity",
        [
          Helpers.qcheck prop_incremental_matches_full;
          Helpers.qcheck prop_incremental_matches_full_rescaled;
          Helpers.case "rescaling regime, deterministic" test_rescale_identity;
          Helpers.case "bandwidth change re-solves one factor"
            test_bandwidth_change;
        ] );
      ( "validation",
        [
          Helpers.case "identical models are not a delta"
            test_single_class_delta_identical_is_none;
          Helpers.case "solve_incremental rejects bad inputs"
            test_invalid_arguments;
        ] );
      ( "engine",
        [
          Helpers.case "sweep incremental/domains bit-identical"
            test_sweep_incremental_bit_identical;
          Helpers.case "sweep chains multi-class deltas"
            test_sweep_multi_class_chain;
          Helpers.case "run_replications domain-independent"
            test_replications_domain_independent;
        ] );
    ]
