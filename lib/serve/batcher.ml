module Json = Crossbar_engine.Json
module Pool = Crossbar_engine.Pool
module Clock = Crossbar_engine.Clock
module Telemetry = Crossbar_engine.Telemetry
module Model = Crossbar.Model
module Traffic = Crossbar.Traffic
module Convolution = Crossbar.Convolution
module Solver = Crossbar.Solver
module Measures = Crossbar.Measures
module Revenue = Crossbar.Revenue

type outcome = { responses : Json.t array; shutdown : bool }

(* ---------- per-query handlers ---------- *)

(* Solver preconditions surface as Invalid_argument/Failure; both are
   the client's problem, not the daemon's. *)
let guard f =
  match f () with
  | response -> response
  | exception Invalid_argument message -> Error message
  | exception Failure message -> Error message

let unknown_tree tree =
  Error (Printf.sprintf "unknown tree %S (never installed, or evicted)" tree)

let apply_change model (c : Protocol.change) =
  if c.Protocol.class_index < 0 || c.Protocol.class_index >= Model.num_classes model
  then
    invalid_arg
      (Printf.sprintf "change: class %d out of range (model has %d classes)"
         c.Protocol.class_index (Model.num_classes model))
  else
    Model.map_class model c.Protocol.class_index (fun traffic ->
        let traffic =
          match c.Protocol.alpha with
          | Some alpha -> Traffic.with_alpha traffic alpha
          | None -> traffic
        in
        match c.Protocol.beta with
        | Some beta -> Traffic.with_beta traffic beta
        | None -> traffic)

let solved_fields ~tree ~from_hot (entry : Registry.entry) =
  let solution = Solver.solution_of_convolution entry.Registry.solved in
  [
    ("tree", Json.String tree);
    ("from_hot", Json.Bool from_hot);
    ("tree_combines", Json.Int solution.Solver.tree_combines);
    ("banded_combines", Json.Int solution.Solver.banded_combines);
    ("log_g", Json.Float solution.Solver.log_normalization);
    ("measures", Protocol.measures_to_json solution.Solver.measures);
  ]

(* [guard] for the steps of an install.  A warm solve or delta hands
   the resident tree's lattices to the arenas as it rebuilds, so once it
   has started, a failure drops the name instead of leaving it on a
   recycled tree; and the response fields are computed before the new
   entry is stored, so a failed install never leaves a resident tree
   behind for a later read to trip over. *)
let guard_install registry ~tree f =
  match guard f with
  | Error _ as failed ->
      Registry.remove registry tree;
      failed
  | solved -> solved

let handle_solve registry ~tree model =
  guard_install registry ~tree (fun () ->
      let entry, from_hot = Registry.solve registry ~name:tree model in
      let fields = solved_fields ~tree ~from_hot entry in
      Registry.replace registry ~name:tree entry;
      Ok (fields, Some (entry, from_hot)))

let handle_delta registry ~tree changes =
  match Registry.find registry tree with
  | None -> unknown_tree tree
  | Some { Registry.model; solved } ->
      guard (fun () ->
          (* A malformed change fails here, leaving the tree as it was. *)
          let model' = List.fold_left apply_change model changes in
          guard_install registry ~tree (fun () ->
              (* [Registry.replace] below drops the previous tree, and
                 requests for one tree are sharded onto a single worker,
                 so the update may recycle the replaced nodes into this
                 domain's arena. *)
              let solved' =
                Convolution.solve_delta ~recycle:true ~previous:solved model'
              in
              let entry = { Registry.model = model'; solved = solved' } in
              let changed =
                match Model.class_delta model model' with
                | Some indices -> indices
                | None -> []
              in
              let fields =
                solved_fields ~tree ~from_hot:true entry
                @ [
                    ( "changed_classes",
                      Json.List (List.map (fun i -> Json.Int i) changed) );
                  ]
              in
              Registry.replace registry ~name:tree entry;
              Ok (fields, Some (entry, true))))

let handle_blocking registry ~tree =
  match Registry.find registry tree with
  | None -> unknown_tree tree
  | Some ({ Registry.solved; _ } as entry) ->
      guard (fun () ->
          let measures = Convolution.measures solved in
          let classes =
            Array.to_list
              (Array.map
                 (fun (c : Measures.per_class) ->
                   Json.Assoc
                     [
                       ("name", Json.String c.Measures.name);
                       ("blocking", Json.Float c.Measures.blocking);
                       ("non_blocking", Json.Float c.Measures.non_blocking);
                     ])
                 measures.Measures.per_class)
          in
          Ok
            ( [ ("tree", Json.String tree); ("classes", Json.List classes) ],
              Some (entry, true) ))

let shadow_costs_of entry ~weights =
  let { Registry.model; solved } = entry in
  let costs = Revenue.shadow_costs ~solved model ~weights in
  let revenue = Measures.revenue (Convolution.measures solved) ~weights in
  (costs, revenue)

let handle_shadow_costs registry ~tree ~weights =
  match Registry.find registry tree with
  | None -> unknown_tree tree
  | Some entry ->
      guard (fun () ->
          let costs, revenue = shadow_costs_of entry ~weights in
          Ok
            ( [
                ("tree", Json.String tree);
                ("revenue", Json.Float revenue);
                ( "shadow_costs",
                  Json.List
                    (Array.to_list
                       (Array.map (fun d -> Json.Float d) costs)) );
              ],
              Some (entry, true) ))

let handle_admit registry ~tree ~class_index ~weights =
  match Registry.find registry tree with
  | None -> unknown_tree tree
  | Some entry ->
      guard (fun () ->
          if
            class_index < 0
            || class_index >= Model.num_classes entry.Registry.model
          then
            invalid_arg
              (Printf.sprintf "admit: class %d out of range (model has %d \
                               classes)"
                 class_index
                 (Model.num_classes entry.Registry.model))
          else begin
            let costs, _ = shadow_costs_of entry ~weights in
            let weight = weights.(class_index) in
            let shadow = costs.(class_index) in
            (* Revenue-positive admission (paper Section 4): accept a
               class-r request iff the revenue it earns covers the
               revenue its port usage displaces. *)
            Ok
              ( [
                  ("tree", Json.String tree);
                  ("class", Json.Int class_index);
                  ("admit", Json.Bool (weight >= shadow));
                  ("weight", Json.Float weight);
                  ("shadow_cost", Json.Float shadow);
                  ("net_gain", Json.Float (weight -. shadow));
                ],
                Some (entry, true) )
          end)

let stats_fields ~registry ~telemetry ~domains =
  [
    (* One consistent telemetry snapshot, minus the unbounded per-solve
       record list (a long-running daemon would make it enormous). *)
    ("telemetry", Telemetry.to_json ~records:false telemetry);
    ("registry", Registry.stats_json registry);
    ("domains", Json.Int domains);
  ]

(* ---------- execution ---------- *)

let handle ~registry ~telemetry ~domains (request : Protocol.request) =
  let started = Clock.now () in
  let op = Protocol.op_name request.Protocol.query in
  let tree = Protocol.tree_name request.Protocol.query in
  let outcome =
    match request.Protocol.query with
    | Protocol.Solve { tree; model } -> handle_solve registry ~tree model
    | Protocol.Delta { tree; changes } -> handle_delta registry ~tree changes
    | Protocol.Blocking { tree } -> handle_blocking registry ~tree
    | Protocol.Shadow_costs { tree; weights } ->
        handle_shadow_costs registry ~tree ~weights
    | Protocol.Admit { tree; class_index; weights } ->
        handle_admit registry ~tree ~class_index ~weights
    | Protocol.Stats -> Ok (stats_fields ~registry ~telemetry ~domains, None)
    | Protocol.Shutdown -> Ok ([], None)
  in
  let response =
    match outcome with
    | Ok (fields, _) -> Protocol.ok_response ~id:request.Protocol.id ~op fields
    | Error message -> Protocol.error_response ~id:request.Protocol.id message
  in
  let solved =
    match outcome with Ok (_, solved) -> solved | Error _ -> None
  in
  let label = match tree with Some t -> op ^ ":" ^ t | None -> op in
  let record =
    match solved with
    | Some ({ Registry.solved; model }, from_hot) ->
        (* Counters read straight off the solve: nothing here evaluates
           the model again, so recording cannot fail. *)
        {
          Telemetry.label;
          algorithm = Solver.algorithm_to_string Solver.Convolution;
          wall_seconds = Clock.elapsed_since started;
          lattice_cells = (Model.inputs model + 1) * (Model.outputs model + 1);
          rescales = Convolution.rescale_count solved;
          (* Reads off a hot tree do no combine work; only solve/delta
             actually ran the recurrence this request. *)
          tree_combines =
            (match request.Protocol.query with
            | Protocol.Solve _ | Protocol.Delta _ ->
                Convolution.combine_count solved
            | _ -> 0);
          banded_combines =
            (match request.Protocol.query with
            | Protocol.Solve _ | Protocol.Delta _ ->
                Convolution.banded_combine_count solved
            | _ -> 0);
          from_cache =
            (match request.Protocol.query with
            | Protocol.Solve _ | Protocol.Delta _ -> false
            | _ -> true);
          from_incremental =
            (match request.Protocol.query with
            | Protocol.Solve _ | Protocol.Delta _ -> from_hot
            | _ -> false);
        }
    | None ->
        {
          Telemetry.label;
          algorithm = "serve";
          wall_seconds = Clock.elapsed_since started;
          lattice_cells = 0;
          rescales = 0;
          tree_combines = 0;
          banded_combines = 0;
          from_cache = false;
          from_incremental = false;
        }
  in
  Telemetry.record telemetry record;
  response

let execute ?domains ~registry ~telemetry (requests : Protocol.request array) =
  let n = Array.length requests in
  let width =
    match domains with Some d -> d | None -> Pool.recommended_domains ()
  in
  let responses = Array.make n Json.Null in
  (* Group request indices by target tree, arrival order preserved
     within each tree.  Stats/shutdown have no tree; they run in the
     caller's domain after the tree groups complete, so a stats
     response reflects the batch it arrived with. *)
  let by_tree : (string, int list) Hashtbl.t = Hashtbl.create 8 in
  let control = ref [] in
  Array.iteri
    (fun i request ->
      match Protocol.tree_name request.Protocol.query with
      | Some tree ->
          let tail =
            Option.value ~default:[] (Hashtbl.find_opt by_tree tree)
          in
          Hashtbl.replace by_tree tree (i :: tail)
      | None -> control := i :: !control)
    requests;
  let groups =
    Array.of_list
      (List.sort
         (fun (a, _) (b, _) -> String.compare a b)
         (Hashtbl.fold
            (fun tree indices acc -> (tree, List.rev indices) :: acc)
            by_tree []))
  in
  (* Per-tree worker sharding: each group walks its requests in arrival
     order on one pool worker; distinct trees run concurrently.  Results
     scatter back by request index, so responses are index-aligned no
     matter which domain served which tree. *)
  let group_responses =
    (* lint: guarded=groups,requests — both frozen before the pool starts *)
    Pool.run ~domains:width ~tasks:(Array.length groups) (fun g ->
        let _, indices = groups.(g) in
        List.map
          (fun i ->
            (i, handle ~registry ~telemetry ~domains:width requests.(i)))
          indices)
  in
  Array.iter
    (List.iter (fun (i, response) -> responses.(i) <- response))
    group_responses;
  let shutdown = ref false in
  List.iter
    (fun i ->
      (match requests.(i).Protocol.query with
      | Protocol.Shutdown -> shutdown := true
      | _ -> ());
      responses.(i) <- handle ~registry ~telemetry ~domains:width requests.(i))
    (List.rev !control);
  (* Quiescent point: every pool worker has finished its band, so trees
     evicted by capacity pressure during this batch have no remaining
     readers and their lattices can go back to the arenas. *)
  ignore (Registry.recycle_evicted registry : int);
  { responses; shutdown = !shutdown }
