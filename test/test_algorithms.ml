open Helpers
module Model = Crossbar.Model
module Brute = Crossbar.Brute
module Convolution = Crossbar.Convolution
module Mva = Crossbar.Mva
module Solver = Crossbar.Solver
module Measures = Crossbar.Measures

let check_measures_equal ?(tol = 1e-9) label (a : Measures.t) (b : Measures.t) =
  Array.iteri
    (fun r (ca : Measures.per_class) ->
      let cb = b.Measures.per_class.(r) in
      check_close
        (Printf.sprintf "%s: B[%s]" label ca.Measures.name)
        ca.Measures.non_blocking cb.Measures.non_blocking ~tol;
      check_close
        (Printf.sprintf "%s: E[%s]" label ca.Measures.name)
        ca.Measures.concurrency cb.Measures.concurrency ~tol)
    a.Measures.per_class;
  check_close (label ^ ": busy ports") a.Measures.busy_ports b.Measures.busy_ports
    ~tol

(* ---------- Algorithm 1 (convolution) vs enumeration ---------- *)

let test_convolution_matches_brute () =
  List.iter
    (fun (label, model) ->
      check_measures_equal label (Brute.solve model)
        (Convolution.measures (Convolution.solve model)))
    (validation_models ())

let test_convolution_log_g_lattice () =
  (* Every lattice point must equal the enumerated G(n1, n2). *)
  let model = mixed_model ~inputs:5 ~outputs:4 in
  let solved = Convolution.solve model in
  for n1 = 0 to 5 do
    for n2 = 0 to 4 do
      check_close
        (Printf.sprintf "log G(%d,%d)" n1 n2)
        (Brute.log_g model ~inputs:n1 ~outputs:n2)
        (Convolution.log_g solved ~inputs:n1 ~outputs:n2)
        ~tol:1e-10
    done
  done

(* ---------- Algorithm 2 (MVA) vs Algorithm 1 ---------- *)

let test_mva_matches_convolution () =
  List.iter
    (fun (label, model) ->
      check_measures_equal label
        (Convolution.measures (Convolution.solve model))
        (Mva.measures (Mva.solve model)))
    (validation_models ())

let test_mva_ratio_lattice () =
  let model = mixed_model ~inputs:4 ~outputs:5 in
  let solved = Mva.solve model in
  for n1 = 1 to 4 do
    for n2 = 0 to 5 do
      let expected =
        exp
          (Brute.log_g model ~inputs:(n1 - 1) ~outputs:n2
          -. Brute.log_g model ~inputs:n1 ~outputs:n2)
        *. float_of_int n1
      in
      check_close
        (Printf.sprintf "F1(%d,%d)" n1 n2)
        expected
        (Mva.f1 solved ~inputs:n1 ~outputs:n2)
        ~tol:1e-10
    done
  done

let test_mva_log_normalization () =
  List.iter
    (fun (label, model) ->
      check_close
        (label ^ ": log G")
        (Brute.log_g model ~inputs:(Model.inputs model)
           ~outputs:(Model.outputs model))
        (Mva.log_normalization (Mva.solve model))
        ~tol:1e-10)
    (validation_models ())

let test_as_printed_diverges () =
  (* Executable documentation: the literally-typeset equation (19) is not
     the corrected recurrence (it departs once the bursty class has any
     weight at depth >= 1). *)
  let model =
    Model.square ~size:8 ~classes:[ pascal ~alpha:0.4 ~beta:0.2 () ]
  in
  let good = (Mva.measures (Mva.solve model)).Measures.per_class.(0) in
  let bad =
    (Mva.measures (Mva.solve ~d_recurrence:Mva.As_printed model))
      .Measures.per_class.(0)
  in
  check_bool "printed equation is wrong" true
    (Float.abs (good.Measures.non_blocking -. bad.Measures.non_blocking)
    > 1e-3)

(* ---------- large systems and stability ---------- *)

let test_large_poisson_agreement () =
  (* N = 200: far beyond enumeration; the two recurrences must agree. *)
  let model = Crossbar_workloads.Paper.operating_point_model 200 in
  check_measures_equal ~tol:1e-9 "N=200"
    (Convolution.measures (Convolution.solve model))
    (Mva.measures (Mva.solve model))

let test_large_mixed_agreement () =
  let model =
    Model.square ~size:150
      ~classes:
        [
          poisson ~name:"p" 0.15;
          pascal ~name:"burst" ~alpha:0.1 ~beta:0.05 ();
          poisson ~name:"wide" ~bandwidth:2 0.2;
        ]
  in
  check_measures_equal ~tol:1e-8 "N=150 mixed"
    (Convolution.measures (Convolution.solve model))
    (Mva.measures (Mva.solve model))

let test_no_rescale_at_paper_sizes () =
  let solved =
    Convolution.solve (Crossbar_workloads.Paper.operating_point_model 128)
  in
  check_int "no dynamic rescale needed" 0 (Convolution.rescale_count solved)

let test_dynamic_scaling_fires_and_stays_correct () =
  (* Utilisation-saturating load on a large switch drives G out of the
     double range; Algorithm 1 must rescale yet still agree with MVA
     (which never needs scaling). *)
  let model =
    Model.square ~size:300 ~classes:[ poisson ~name:"hot" 2000.0 ]
  in
  let conv = Convolution.solve model in
  check_bool "rescale fired" true (Convolution.rescale_count conv > 0);
  check_measures_equal ~tol:1e-8 "scaled vs mva" (Convolution.measures conv)
    (Mva.measures (Mva.solve model))

(* Four classes of two bandwidths in the rescaling regime, from cap 256
   to 2000: the separable kernel's span rebasing and exponent arithmetic
   must leave every measure and log G within 1e-9 of Algorithm 2, which
   never scales.  Loads are picked so each solve folds in at least one
   Section 6 rescale chunk. *)
let test_rescaling_r4_matches_mva () =
  List.iter
    (fun (cap, load, bursty) ->
      let model =
        Model.square ~size:cap
          ~classes:
            [
              poisson ~name:"p1" load;
              poisson ~name:"p2" ~bandwidth:2
                (load /. float_of_int (cap - 1));
              (if bursty then pascal ~name:"q1" ~alpha:load ~beta:0.01 ()
               else poisson ~name:"q1" (0.7 *. load));
              poisson ~name:"p3" (0.5 *. load);
            ]
      in
      let label = Printf.sprintf "cap %d load %g" cap load in
      let conv = Convolution.solve model and mva = Mva.solve model in
      check_bool (label ^ ": rescale fired") true
        (Convolution.rescale_count conv >= 1);
      check_measures_equal ~tol:1e-9 label (Convolution.measures conv)
        (Mva.measures mva);
      check_close ~tol:1e-9 (label ^ ": log G")
        (Mva.log_normalization mva)
        (Convolution.log_normalization conv))
    [
      (256, 4.0, true);
      (512, 1.0, true);
      (1024, 0.05, true);
      (2000, 0.1, false);
    ]

let test_flushed_entry_detected () =
  (* Extreme load on a large switch forces repeated rescales; entries near
     the origin underflow to zero.  log_g must refuse them loudly instead
     of returning -inf into downstream blocking/revenue arithmetic. *)
  let model = Model.square ~size:64 ~classes:[ poisson ~name:"hot" 1e12 ] in
  let solved = Convolution.solve model in
  check_bool "multiple rescales fired" true
    (Convolution.rescale_count solved >= 2);
  check_raises_failure "flushed origin refused" (fun () ->
      ignore (Convolution.log_g solved ~inputs:0 ~outputs:0));
  (* The corner — and therefore every measure — stays exact and finite. *)
  check_bool "corner finite" true
    (Float.is_finite (Convolution.log_normalization solved));
  Array.iter
    (fun (c : Measures.per_class) ->
      check_bool "finite blocking" true (Float.is_finite c.Measures.blocking);
      check_bool "finite concurrency" true
        (Float.is_finite c.Measures.concurrency))
    (Convolution.measures solved).Measures.per_class

(* ---------- special cases with closed forms ---------- *)

let test_single_row_is_erlang () =
  (* A 1 x M crossbar with one a=1 Poisson class is an Erlang loss system
     with one server and offered load M rho. *)
  let m = 7 and rho_tilde = 0.8 in
  let model =
    Model.create ~inputs:1 ~outputs:m
      ~classes:[ poisson ~name:"t" rho_tilde ]
  in
  let measures = Solver.solve ~algorithm:Solver.Brute_force model in
  (* per-pair rho = rho~/M; offered to the single input = M * per-pair *)
  let offered = rho_tilde in
  let expected_blocking = offered /. (1. +. offered) in
  check_close "erlang-1 blocking" expected_blocking
    measures.Measures.per_class.(0).Measures.blocking ~tol:1e-12

let test_two_by_two_hand_computed () =
  (* G(2,2) = 1 + 4 rho + 2 rho^2 for a single a=1 Poisson class with
     per-pair load rho; B = G(1,1)/G(2,2). *)
  let rho_tilde = 0.6 in
  let rho = rho_tilde /. 2. in
  let model = Model.square ~size:2 ~classes:[ poisson rho_tilde ] in
  let g22 = 1. +. (4. *. rho) +. (2. *. rho *. rho) in
  let g11 = 1. +. rho in
  let measures = Solver.solve ~algorithm:Solver.Convolution model in
  check_close "hand-computed B" (g11 /. g22)
    measures.Measures.per_class.(0).Measures.non_blocking ~tol:1e-12;
  (* E = rho * N1 N2 * B for a = 1. *)
  check_close "hand-computed E"
    (rho *. 4. *. g11 /. g22)
    measures.Measures.per_class.(0).Measures.concurrency ~tol:1e-12

let test_solver_dispatch () =
  let model = Model.square ~size:4 ~classes:[ poisson 0.5 ] in
  let reference = Brute.solve model in
  List.iter
    (fun algorithm ->
      check_measures_equal
        (Solver.algorithm_to_string algorithm)
        reference
        (Solver.solve ~algorithm model))
    [ Solver.Brute_force; Solver.Convolution; Solver.Mean_value ];
  check_bool "recommended small" true
    (Solver.recommended model = Solver.Convolution);
  check_bool "recommended large" true
    (Solver.recommended (Crossbar_workloads.Paper.operating_point_model 64)
    = Solver.Mean_value);
  (match Solver.algorithm_of_string "mva" with
  | Ok Solver.Mean_value -> ()
  | _ -> Alcotest.fail "algorithm_of_string mva");
  match Solver.algorithm_of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonsense algorithm accepted"

(* ---------- randomised cross-validation ---------- *)

let random_model_gen = Helpers.random_model_gen

let algorithm_agreement_props =
  [
    QCheck2.Test.make ~name:"brute = convolution = mva on random models"
      ~count:120 random_model_gen (fun model ->
        let a = Brute.solve model in
        let b = Convolution.measures (Convolution.solve model) in
        let c = Mva.measures (Mva.solve model) in
        let close x y =
          Float.abs (x -. y) <= 1e-8 *. Float.max 1. (Float.abs x)
        in
        Array.for_all2
          (fun (pa : Measures.per_class) (pb : Measures.per_class) ->
            close pa.Measures.non_blocking pb.Measures.non_blocking
            && close pa.Measures.concurrency pb.Measures.concurrency)
          a.Measures.per_class b.Measures.per_class
        && Array.for_all2
             (fun (pb : Measures.per_class) (pc : Measures.per_class) ->
               close pb.Measures.non_blocking pc.Measures.non_blocking
               && close pb.Measures.concurrency pc.Measures.concurrency)
             b.Measures.per_class c.Measures.per_class);
    QCheck2.Test.make ~name:"probabilities stay in [0,1]" ~count:120
      random_model_gen (fun model ->
        let m = Mva.measures (Mva.solve model) in
        Array.for_all
          (fun (c : Measures.per_class) ->
            c.Measures.non_blocking >= 0.
            && c.Measures.non_blocking <= 1. +. 1e-12
            && c.Measures.concurrency >= 0.)
          m.Measures.per_class);
  ]

let () =
  Alcotest.run "algorithms"
    [
      ( "convolution",
        [
          case "matches brute force" test_convolution_matches_brute;
          case "full lattice" test_convolution_log_g_lattice;
          case "no rescale at paper sizes" test_no_rescale_at_paper_sizes;
          slow_case "dynamic scaling correctness"
            test_dynamic_scaling_fires_and_stays_correct;
          slow_case "R=4 rescaling regime vs MVA, caps 256-2000"
            test_rescaling_r4_matches_mva;
          case "flushed entry detected" test_flushed_entry_detected;
        ] );
      ( "mva",
        [
          case "matches convolution" test_mva_matches_convolution;
          case "ratio lattice" test_mva_ratio_lattice;
          case "log normalization" test_mva_log_normalization;
          case "as-printed eq.19 diverges" test_as_printed_diverges;
        ] );
      ( "large-systems",
        [
          slow_case "N=200 poisson" test_large_poisson_agreement;
          slow_case "N=150 mixed" test_large_mixed_agreement;
        ] );
      ( "closed-forms",
        [
          case "1xM is Erlang" test_single_row_is_erlang;
          case "2x2 hand computed" test_two_by_two_hand_computed;
          case "solver dispatch" test_solver_dispatch;
        ] );
      ("properties", List.map qcheck algorithm_agreement_props);
    ]
