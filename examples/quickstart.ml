(* Quickstart: model a 16x16 asynchronous optical crossbar carrying two
   traffic classes, solve it exactly, and read off the performance
   measures.

     dune exec examples/quickstart.exe *)

let () =
  (* Classes are described by their aggregate ("tilde") BPP parameters:
     requests for one particular input set arrive at rate
     alpha~ + beta~ k when k connections of the class are up. *)
  let voice =
    Crossbar.Traffic.poisson ~name:"voice" ~bandwidth:1 ~rate:0.01
      ~service_rate:1.0 ()
  in
  let video =
    (* Peaky (Pascal) sessions that need two parallel connections each. *)
    Crossbar.Traffic.pascal ~name:"video" ~bandwidth:2 ~alpha:1e-4
      ~beta:2.5e-5 ~service_rate:0.25 ()
  in
  let switch =
    Crossbar.Model.square ~size:16 ~classes:[ voice; video ]
  in
  Format.printf "%a@." Crossbar.Model.pp switch;

  (* Solve with the recommended algorithm: Algorithm 1, exact at every
     switch size. *)
  let measures = Crossbar.Solver.solve switch in
  Format.printf "%a@.@." Crossbar.Measures.pp measures;

  (* Individual quantities are plain record fields. *)
  let video_measures = Crossbar.Measures.class_named measures "video" in
  Format.printf "video blocking: %.4f%%@."
    (100. *. video_measures.Crossbar.Measures.blocking);
  Format.printf "video concurrent sessions: %.3f@."
    video_measures.Crossbar.Measures.concurrency;
  Format.printf "switch throughput: %.3f connections/unit time@."
    (Crossbar.Measures.total_throughput measures)
