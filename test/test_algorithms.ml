open Helpers
module Model = Crossbar.Model
module Brute = Crossbar.Brute
module Convolution = Crossbar.Convolution
module Mva = Crossbar.Mva
module Solver = Crossbar.Solver
module Measures = Crossbar.Measures
module Revenue = Crossbar.Revenue
module Occupancy = Crossbar.Occupancy

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

(* Four classes of two bandwidths in the old rescaling regime, from cap
   256 to 2000: the per-entry exponents and the separable kernel's span
   rebasing must leave every measure and log G within 1e-9 of Algorithm
   2.  Loads are picked so each solve sits at least one Section 6
   rescale chunk deep; at load 4 the single-scale scheme gave 6.6e-6
   error at cap 512 and NaN at cap 1024. *)
let r4_model ~cap ~load ~bursty =
  Model.square ~size:cap
    ~classes:
      [
        poisson ~name:"p1" load;
        poisson ~name:"p2" ~bandwidth:2 (load /. float_of_int (cap - 1));
        (if bursty then pascal ~name:"q1" ~alpha:load ~beta:0.01 ()
         else poisson ~name:"q1" (0.7 *. load));
        poisson ~name:"p3" (0.5 *. load);
      ]

let check_matches_mva ?(min_rescales = 1) label model =
  let conv = Convolution.solve model and mva = Mva.solve model in
  check_bool
    (Printf.sprintf "%s: at least %d rescale chunk(s)" label min_rescales)
    true
    (Convolution.rescale_count conv >= min_rescales);
  check_measures_equal ~tol:1e-9 label (Convolution.measures conv)
    (Mva.measures mva);
  check_close ~tol:1e-9 (label ^ ": log G")
    (Mva.log_normalization mva)
    (Convolution.log_normalization conv)

let test_rescaling_r4_matches_mva () =
  List.iter
    (fun (cap, load, bursty) ->
      check_matches_mva
        (Printf.sprintf "cap %d load %g" cap load)
        (r4_model ~cap ~load ~bursty))
    [
      (256, 4.0, true);
      (512, 1.0, true);
      (512, 4.0, true);
      (1024, 0.05, true);
      (1024, 4.0, true);
      (2000, 0.1, false);
    ]

(* The perfbench defect repros: D1 ([multi_delta_model ~classes:8
   ~size:256 0.05], whose measures drifted by up to 0.99 relative) and
   D2 (a 1024-port R=2 switch whose solve answered NaN and whose
   log_normalization raised), plus an R=8 cap-512 switch with a Pascal
   class, the regime where the single-scale scheme put a Pascal class's
   E two orders of magnitude low. *)
let d1_model =
  Model.square ~size:256
    ~classes:
      [
        poisson ~name:"md0" 0.05;
        poisson ~name:"md1" ~bandwidth:2 0.04;
        poisson ~name:"md2" 0.06;
        poisson ~name:"md3" ~bandwidth:2 0.06;
        pascal ~name:"md4" ~bandwidth:2 ~alpha:0.04 ~beta:0.01 ();
        poisson ~name:"md5" ~bandwidth:2 0.06;
        poisson ~name:"md6" 0.06;
        pascal ~name:"md7" ~bandwidth:2 ~alpha:0.04 ~beta:0.01 ();
      ]

let d2_model =
  Model.square ~size:1024
    ~classes:[ poisson ~name:"a" 3.0; poisson ~name:"b" ~bandwidth:2 2.4 ]

let r8_pascal_model =
  Model.square ~size:512
    ~classes:
      (List.init 8 (fun r ->
           let name = Printf.sprintf "c%d" r in
           if r = 5 then pascal ~name ~alpha:4.0 ~beta:0.01 ()
           else
             poisson ~name ~bandwidth:(1 + (r mod 2)) (0.5 +. float_of_int r)))

let test_defect_shapes_match_mva () =
  check_matches_mva "D1: R=8 cap 256" d1_model;
  check_matches_mva ~min_rescales:2 "D2: R=2 cap 1024" d2_model;
  check_matches_mva ~min_rescales:2 "R=8 cap 512 with a Pascal class"
    r8_pascal_model

(* At a shape several chunks deep, the quantities read off deeper
   diagonal entries and the leave-one-out complements — all R shadow
   costs and every class's marginal — must match the independent
   paths: Algorithm 2's two-solve revenue difference and the log-space
   knapsack of Occupancy. *)
let test_deep_regime_revenue_and_marginals () =
  let model = r4_model ~cap:512 ~load:4.0 ~bursty:true in
  let solved = Convolution.solve model in
  check_bool "two or more rescale chunks deep" true
    (Convolution.rescale_count solved >= 2);
  let weights = [| 1.0; 0.5; 2.0; 0.25 |] in
  let costs = Revenue.shadow_costs ~solved model ~weights in
  Array.iteri
    (fun r cost ->
      check_close ~tol:1e-9
        (Printf.sprintf "class %d shadow cost vs MVA" r)
        (Revenue.shadow_cost ~algorithm:Solver.Mean_value model ~weights
           ~class_index:r)
        cost)
    costs;
  Array.iteri
    (fun r (d : Measures.distribution) ->
      let expected = Occupancy.class_distribution model ~class_index:r in
      check_int
        (Printf.sprintf "class %d support" r)
        (Array.length expected)
        (Array.length d.Measures.probabilities);
      Array.iteri
        (fun m p ->
          let q = d.Measures.probabilities.(m) in
          let label = Printf.sprintf "class %d: p(k=%d)" r m in
          if p > 1e-12 then check_close ~tol:1e-9 label p q
          else check_abs ~tol:1e-12 label p q)
        expected)
    (Convolution.per_class_distributions solved)

(* Six shapes the single-scale scheme solved without any rescale: their
   measures and log G, as that implementation computed them (hex float
   literals), must hold to 1e-14. *)
let pinned_shapes =
  [
    ( "32x32 R=2",
      Model.square ~size:32
        ~classes:
          [
            poisson ~name:"v" 0.5;
            pascal ~name:"w" ~bandwidth:2 ~alpha:0.3 ~beta:0.1 ();
          ],
      0x1.721ce72b46e47p+5,
      [
        (0x1.0466a72ae01b4p-4, 0x1.0466a72ae01b4p+0);
        (0x1.195761b9836dfp-8, 0x1.72a55d2b672afp+3);
      ] );
    ( "48x40 R=3",
      Model.create ~inputs:48 ~outputs:40
        ~classes:
          [
            poisson ~name:"p" 0.4;
            bernoulli ~name:"b" ~sources:20 ~rate:0.02 ();
            pascal ~name:"q" ~bandwidth:3 ~alpha:0.2 ~beta:0.05 ();
          ],
      0x1.64614a6d7084dp+6,
      [
        (0x1.cd6ed26d1ebb6p-6, 0x1.14dc17db12707p-1);
        (0x1.cd6ed26d1ebb6p-6, 0x1.0d996536d7ca2p-1);
        (0x1.abca52ed871ecp-16, 0x1.72ad3de9e4dd2p+3);
      ] );
    ( "128x128 R=4",
      Model.square ~size:128
        ~classes:
          [
            poisson ~name:"a" 0.3;
            poisson ~name:"b" ~bandwidth:2 0.2;
            pascal ~name:"c" ~alpha:0.1 ~beta:0.02 ();
            poisson ~name:"d" ~bandwidth:4 0.05;
          ],
      0x1.49ec8d87b7d93p+8,
      [
        (0x1.13ce58d41468fp-6, 0x1.4af79dcb4bb12p-1);
        (0x1.2d2b6752cb556p-12, 0x1.de1b4da03c646p+0);
        (0x1.13ce58d41468fp-6, 0x1.cd1d6fdd919c1p-3);
        (0x1.760fa81513ca1p-24, 0x1.ac21edb5a6c35p+4);
      ] );
    ( "200x200 R=2",
      Model.square ~size:200
        ~classes:[ poisson ~name:"a" 0.6; poisson ~name:"b" ~bandwidth:2 0.3 ],
      0x1.61989649c6f56p+8,
      [
        (0x1.c44f9160cdf93p-5, 0x1.a80a984ac1199p+2);
        (0x1.925c06bda43f1p-9, 0x1.253930a994023p+6);
      ] );
    ( "64x96 R=8",
      Model.create ~inputs:64 ~outputs:96
        ~classes:
          (List.init 8 (fun r ->
               let name = string_of_int r in
               if r mod 3 = 2 then
                 pascal ~name ~bandwidth:(1 + (r mod 2)) ~alpha:0.05
                   ~beta:0.01 ()
               else
                 poisson ~name ~bandwidth:(1 + (r mod 3))
                   (0.04 *. float_of_int (r + 1)))),
      0x1.d882d3f3e65cp+6,
      [
        (0x1.1769db09a8144p-4, 0x1.65a6371699b39p-3);
        (0x1.367df5850f815p-8, 0x1.87384ef474d1p+1);
        (0x1.1769db09a8144p-4, 0x1.d3497141c5fdbp-3);
        (0x1.1769db09a8144p-4, 0x1.65a6371699b39p-1);
        (0x1.367df5850f815p-8, 0x1.e90662b192055p+2);
        (0x1.367df5850f815p-8, 0x1.7f761ecee2b0cp+1);
        (0x1.1769db09a8144p-4, 0x1.38f17033c67d2p+0);
        (0x1.367df5850f815p-8, 0x1.87384ef474d1p+3);
      ] );
    ( "16x16 R=2 wide",
      Model.square ~size:16
        ~classes:
          [ poisson ~name:"wide" ~bandwidth:4 0.8; poisson ~name:"thin" 1.5 ],
      0x1.f3a92dce7e595p+4,
      [
        (0x1.dd8eaf89eb42ep-19, 0x1.7df3dee58ee9cp+1);
        (0x1.4eff25e56f4cap-5, 0x1.f67eb8d826f2fp-1);
      ] );
  ]

let test_pinned_shapes () =
  List.iter
    (fun (label, model, log_g, classes) ->
      let solved = Convolution.solve model in
      check_int (label ^ ": no rescale") 0 (Convolution.rescale_count solved);
      check_close ~tol:1e-14 (label ^ ": log G") log_g
        (Convolution.log_normalization solved);
      List.iteri
        (fun r (b, e) ->
          let c = (Convolution.measures solved).Measures.per_class.(r) in
          check_close ~tol:1e-14
            (Printf.sprintf "%s: B[%d]" label r)
            b c.Measures.non_blocking;
          check_close ~tol:1e-14
            (Printf.sprintf "%s: E[%d]" label r)
            e c.Measures.concurrency)
        classes)
    pinned_shapes

(* Bernoulli classes with few sources at extreme load: every source is
   busy almost surely, the regime where the paper's concurrency
   recurrence diverges (taken here, it gives E = -3e210 for the
   one-source class).  Algorithm 1 reads a Bernoulli
   class's E off its shifted-class diagonal instead; Occupancy's
   log-space knapsack is the oracle for every class's E and, through the
   load distribution, B_r = sum_j P(load = j) C(N1-j,a) C(N2-j,a) /
   (C(N1,a) C(N2,a)). *)
let test_saturated_bernoulli () =
  let model =
    Model.square ~size:64
      ~classes:
        [
          poisson ~name:"wide" ~bandwidth:2 1e4;
          poisson ~name:"thin" 1e4;
          bernoulli ~name:"one" ~sources:1 ~rate:1.7e6 ();
          bernoulli ~name:"three" ~bandwidth:2 ~sources:3 ~rate:1e5 ();
        ]
  in
  let solved = Convolution.solve model in
  check_bool "rescale regime" true (Convolution.rescale_count solved >= 1);
  let load = Occupancy.load_distribution model in
  let free ports a j =
    exp (Crossbar_numerics.Special.log_binomial (ports - j) a
        -. Crossbar_numerics.Special.log_binomial ports a)
  in
  Array.iteri
    (fun r (c : Measures.per_class) ->
      let a = Model.bandwidth model r in
      let b = ref 0. in
      Array.iteri
        (fun j p ->
          if j + a <= 64 then b := !b +. (p *. free 64 a j *. free 64 a j))
        load;
      check_close ~tol:1e-9
        (Printf.sprintf "B[%s] vs occupancy" c.Measures.name)
        !b c.Measures.non_blocking;
      let mean = ref 0. in
      Array.iteri
        (fun m p -> mean := !mean +. (float_of_int m *. p))
        (Occupancy.class_distribution model ~class_index:r);
      check_close ~tol:1e-9
        (Printf.sprintf "E[%s] vs occupancy" c.Measures.name)
        !mean c.Measures.concurrency)
    (Convolution.measures solved).Measures.per_class

let test_deep_entries_exact () =
  (* Extreme load on a large switch: the single-scale scheme folded two
     rescale chunks into the whole profile and flushed the entries near
     the origin to zero.  With one exponent per entry, G(0, 0) = 1 is
     exact however far below the corner it sits, and so is every
     measure. *)
  let model = Model.square ~size:64 ~classes:[ poisson ~name:"hot" 1e12 ] in
  let solved = Convolution.solve model in
  check_bool "two or more rescale chunks deep" true
    (Convolution.rescale_count solved >= 2);
  check_abs ~tol:0. "log G(0, 0) = 0" 0.
    (Convolution.log_g solved ~inputs:0 ~outputs:0);
  check_measures_equal ~tol:1e-9 "vs mva" (Convolution.measures solved)
    (Mva.measures (Mva.solve model))

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
  (* Algorithm 1 is exact at every capacity and 18-42x faster than
     Algorithm 2 on large switches, so it is recommended throughout. *)
  check_bool "recommended large" true
    (Solver.recommended (Crossbar_workloads.Paper.operating_point_model 64)
    = Solver.Convolution);
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

(* The numeric slice of the differential fuzzing the daemon hardening
   plan calls for: random models in the old rescaling regime — per-class
   rates 1e2 to 1e12, caps 64 to 512, one to eight classes of bandwidth
   1-3, Pascal and Bernoulli classes mixed in — on which Algorithm 1 must
   match Algorithm 2 to 1e-9 on every measure and on log G.  Fixed seed
   (see [()] below), so a tier-1 run is reproducible.  Algorithm 2's
   concurrency recurrence multiplies a Bernoulli class's relative error
   by E / (S - E) per step, so the oracle is only trustworthy while the
   class cannot fill half its S sources: Bernoulli classes here have
   S >= 2 cap / a.  Source-saturated ones are checked against
   Occupancy by [test_saturated_bernoulli]. *)
let rescaling_model_gen =
  let open QCheck2.Gen in
  let* cap = int_range 64 512 in
  let* extra = int_range 0 16 in
  let* num_classes = int_range 1 8 in
  let class_gen index =
    let name = Printf.sprintf "c%d" index in
    let* bandwidth = int_range 1 3 in
    let* decades = float_range 2. 12. in
    let rate = 10. ** decades in
    let* kind = int_range 0 2 in
    match kind with
    | 0 -> return (poisson ~name ~bandwidth rate)
    | 1 ->
        let* burst = float_range 0.01 1.0 in
        return (pascal ~name ~bandwidth ~alpha:rate ~beta:(burst *. rate) ())
    | _ ->
        let* sources = int_range (2 * cap / bandwidth) (4 * cap / bandwidth) in
        return
          (bernoulli ~name ~bandwidth ~sources
             ~rate:(rate /. float_of_int sources)
             ())
  in
  let* classes = flatten_l (List.init num_classes class_gen) in
  return (Model.create ~inputs:cap ~outputs:(cap + extra) ~classes)

let print_model model =
  String.concat " "
    (Printf.sprintf "%dx%d" (Model.inputs model) (Model.outputs model)
    :: Array.to_list
         (Array.map
            (fun (c : Crossbar.Traffic.t) ->
              Printf.sprintf "[a=%d alpha=%h beta=%h]"
                c.Crossbar.Traffic.bandwidth c.Crossbar.Traffic.alpha
                c.Crossbar.Traffic.beta)
            (Model.classes model)))

let rescaling_regime_prop =
  QCheck2.Test.make ~name:"convolution = mva in the rescaling regime"
    ~print:print_model ~count:24 rescaling_model_gen (fun model ->
      let conv = Convolution.solve model and mva = Mva.solve model in
      QCheck2.assume (Convolution.rescale_count conv >= 1);
      let close x y =
        Float.abs (x -. y) <= 1e-9 *. Float.max (Float.abs x) (Float.abs y)
      in
      close (Mva.log_normalization mva) (Convolution.log_normalization conv)
      && Array.for_all2
           (fun (pc : Measures.per_class) (pm : Measures.per_class) ->
             close pc.Measures.non_blocking pm.Measures.non_blocking
             && close pc.Measures.concurrency pm.Measures.concurrency)
           (Convolution.measures conv).Measures.per_class
           (Mva.measures mva).Measures.per_class)

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
          slow_case "defect shapes D1, D2 and R=8 cap 512 vs MVA"
            test_defect_shapes_match_mva;
          slow_case "deep regime: shadow costs and marginals"
            test_deep_regime_revenue_and_marginals;
          case "pinned measures of six unscaled shapes" test_pinned_shapes;
          case "deep lattice entries exact" test_deep_entries_exact;
          case "source-saturated Bernoulli vs occupancy"
            test_saturated_bernoulli;
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
      ( "rescaling",
        [
          QCheck_alcotest.to_alcotest ~long:false
            ~rand:(Random.State.make [| 13 |])
            rescaling_regime_prop;
        ] );
    ]
