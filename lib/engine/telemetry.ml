type solve = {
  label : string;
  algorithm : string;
  wall_seconds : float;
  lattice_cells : int;
  rescales : int;
  tree_combines : int;
  banded_combines : int;
  from_cache : bool;
  from_incremental : bool;
}

type t = { mutex : Mutex.t; mutable rev_solves : solve list }

let create () = { mutex = Mutex.create (); rev_solves = [] }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let record t solve =
  (* Wall times come from Engine.Clock (monotonic), so negatives cannot
     arise from there; clamp anyway so no caller-supplied reading can
     ever make totals or percentiles go backwards. *)
  let solve =
    if solve.wall_seconds < 0. then { solve with wall_seconds = 0. }
    else solve
  in
  locked t (fun () -> t.rev_solves <- solve :: t.rev_solves)

let solves t = locked t (fun () -> List.rev t.rev_solves)
let count t = locked t (fun () -> List.length t.rev_solves)

let total_wall_seconds t =
  locked t (fun () ->
      List.fold_left (fun acc s -> acc +. s.wall_seconds) 0. t.rev_solves)

(* Nearest-rank percentile over ascending [sorted]: the smallest element
   with at least [p] of the mass at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(min (n - 1) (max 0 (rank - 1)))
  end

(* [(p50, p95, max)] of an unsorted wall-time array (sorted in place). *)
let percentiles_of_walls walls =
  (* lint: disable=R7 — total order for sorting, not a tolerance test *)
  Array.sort Float.compare walls;
  let n = Array.length walls in
  let maximum = if n = 0 then 0. else walls.(n - 1) in
  (percentile walls 0.5, percentile walls 0.95, maximum)

let wall_percentiles t =
  let walls =
    locked t (fun () ->
        Array.of_list (List.rev_map (fun s -> s.wall_seconds) t.rev_solves))
  in
  percentiles_of_walls walls

let solve_to_json s =
  Json.Assoc
    [
      ("label", Json.String s.label);
      ("algorithm", Json.String s.algorithm);
      ("wall_seconds", Json.Float s.wall_seconds);
      ("lattice_cells", Json.Int s.lattice_cells);
      ("rescales", Json.Int s.rescales);
      ("tree_combines", Json.Int s.tree_combines);
      ("banded_combines", Json.Int s.banded_combines);
      ("from_cache", Json.Bool s.from_cache);
      ("from_incremental", Json.Bool s.from_incremental);
    ]

let to_json ?cache ?domains ?(records = true) t =
  (* One lock acquisition for the whole document: the solve count, the
     wall-time totals, the percentiles and the record list all come from
     this single snapshot, so a record landing concurrently can never
     make the emitted fields disagree with each other. *)
  let solves = locked t (fun () -> List.rev t.rev_solves) in
  let walls = Array.of_list (List.map (fun s -> s.wall_seconds) solves) in
  let total_wall = Array.fold_left ( +. ) 0. walls in
  let p50, p95, wall_max = percentiles_of_walls walls in
  let base =
    [
      ("solves", Json.Int (List.length solves));
      ("wall_seconds", Json.Float total_wall);
      ("wall_seconds_p50", Json.Float p50);
      ("wall_seconds_p95", Json.Float p95);
      ("wall_seconds_max", Json.Float wall_max);
      ( "lattice_cells",
        Json.Int (List.fold_left (fun acc s -> acc + s.lattice_cells) 0 solves)
      );
      ("rescales", Json.Int (List.fold_left (fun acc s -> acc + s.rescales) 0 solves));
      ( "tree_combines",
        Json.Int (List.fold_left (fun acc s -> acc + s.tree_combines) 0 solves)
      );
      ( "banded_combines",
        Json.Int
          (List.fold_left (fun acc s -> acc + s.banded_combines) 0 solves) );
      ( "incremental_solves",
        Json.Int
          (List.length (List.filter (fun s -> s.from_incremental) solves)) );
    ]
  in
  let pool =
    match domains with None -> [] | Some d -> [ ("domains", Json.Int d) ]
  in
  let cache_fields =
    match cache with
    | None -> []
    | Some c ->
        [
          ( "cache",
            Json.Assoc
              [
                ("hits", Json.Int (Cache.hits c));
                ("misses", Json.Int (Cache.misses c));
                ("evictions", Json.Int (Cache.evictions c));
                ("entries", Json.Int (Cache.size c));
                ("hit_rate", Json.Float (Cache.hit_rate c));
              ] );
        ]
  in
  let record_list =
    if records then [ ("records", Json.List (List.map solve_to_json solves)) ]
    else []
  in
  Json.Assoc (base @ pool @ cache_fields @ record_list)
