(* Seeded workload generation.  Everything the daemon or the sweep
   engine receives is built here from the seed alone; the seed varies
   rates, class roles and request choices, while the switch shapes are
   fixed per workload so that the cost of a run does not drift with the
   seed. *)

module Model = Crossbar.Model
module Traffic = Crossbar.Traffic
module Protocol = Crossbar_serve.Protocol
module Json = Crossbar_engine.Json
module Sweep = Crossbar_engine.Sweep

let uniform rng lo hi = lo +. Random.State.float rng (hi -. lo)

let choose n k =
  let c = ref 1.0 in
  for i = 1 to k do
    c := !c *. float_of_int (n - k + i) /. float_of_int i
  done;
  !c

(* Class [j] of an [r]-class model on a [cap x cap] switch: bandwidth 1
   or 2, every fourth class bursty (Pascal), the rest Poisson.  Each
   class offers a seeded 5-25% of the switch's ports: the aggregate
   per-input-set rate is that share of [cap] over [a C(cap, a)] input
   sets of [a] ports each.  Only the rates come from [rng]. *)
let classes rng ~r ~cap =
  List.init r (fun j ->
      let name = Printf.sprintf "c%d" j in
      let bandwidth = if j mod 2 = 0 then 1 else 2 in
      let share = uniform rng 0.05 0.25 in
      let alpha =
        share *. float_of_int cap /. (float_of_int bandwidth *. choose cap bandwidth)
      in
      if j mod 4 = 3 then
        Traffic.pascal ~name ~bandwidth ~alpha ~beta:(uniform rng 0.005 0.02)
          ~service_rate:1.0 ()
      else Traffic.poisson ~name ~bandwidth ~rate:alpha ~service_rate:1.0 ())

let model rng ~cap ~r = Model.square ~size:cap ~classes:(classes rng ~r ~cap)

let with_alpha model index alpha =
  Model.map_class model index (fun t -> Traffic.with_alpha t alpha)

(* ---------- serve trees ---------- *)

(* A resident tree cycles through four states by single-class deltas on
   two toggle classes [a] and [b]: base, a raised, both raised, b
   raised, back to base.  Four states per tree keep the oracle's work
   bounded while every delta still changes the model. *)
type tree = {
  name : string;
  states : Model.t array;  (** the four cycle states *)
  toggles : (int * float * float) array;
      (** [(class, base alpha, raised alpha)] for classes [a], [b] *)
  weights : float array;
}

let cycle_bits = [| (false, false); (true, false); (true, true); (false, true) |]

let tree rng ~name ~cap ~r =
  let base = model rng ~cap ~r in
  let a = Random.State.int rng r in
  let b = (a + 1 + Random.State.int rng (r - 1)) mod r in
  let toggle c =
    let alpha = (Model.classes base).(c).Traffic.alpha in
    (c, alpha, alpha *. uniform rng 1.2 1.6)
  in
  let toggles = [| toggle a; toggle b |] in
  let state (raise_a, raise_b) =
    let pick (c, lo, hi) up m = with_alpha m c (if up then hi else lo) in
    base |> pick toggles.(0) raise_a |> pick toggles.(1) raise_b
  in
  {
    name;
    states = Array.map state cycle_bits;
    toggles;
    weights = Array.init r (fun _ -> uniform rng 0.5 2.0);
  }

(* The delta that moves a tree from state [s] to state [s + 1]. *)
let step_change t s =
  let which = if s = 0 || s = 2 then 0 else 1 in
  let c, lo, hi = t.toggles.(which) in
  let raised_after =
    let a, b = cycle_bits.((s + 1) mod 4) in
    if which = 0 then a else b
  in
  { Protocol.class_index = c; alpha = Some (if raised_after then hi else lo);
    beta = None }

(* ---------- serve workloads ---------- *)

(* A workload's request mix, as slot counts in a deck of requests that
   each connection reshuffles (from its seed) whenever it runs out: the
   shares are exact over every deck, only their order is random. *)
type op = Op_blocking | Op_shadow | Op_admit | Op_delta | Op_resolve | Op_whatif

type serve = {
  name : string;
  connections : int;
  depth : int;  (** requests outstanding per connection *)
  requests : int;  (** timed requests per conversation (fresh daemon) *)
  trees : tree array array;  (** per connection, owned exclusively *)
  whatifs : (Model.t * float array) array;  (** one-shot model pool *)
  deck : (op * int) list;
  stats_every : int;
}

(* What a request is, so its response can be checked afterwards. *)
type expect =
  | Install of { conn : int; tree : int; state : int }
  | Delta of { conn : int; tree : int; state : int }
  | Blocking of { conn : int; tree : int; state : int }
  | Shadow of { conn : int; tree : int; state : int }
  | Admit of { conn : int; tree : int; state : int; class_index : int }
  | Whatif of { model : int }
  | Stats
  | Shutdown

let kind_name = function
  | Install _ -> "install"
  | Delta _ -> "delta"
  | Blocking _ | Shadow _ | Admit _ -> "read"
  | Whatif _ -> "whatif"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

type request = { id : int; line : string; expect : expect }

let line_of ~id query =
  Protocol.request_to_line { Protocol.id = Json.Int id; query }

let admission_shape ~conn i =
  (16 + (48 * ((2 * i) + conn) / 63), [| 2; 4; 8 |].((i + conn) mod 3))

(* Resident shapes of serve-large: R=2 up to cap 512 and R=4 up to 320,
   where solves stay within one Section 6 rescale; defect D1 starts at
   two, which R=8 reaches from cap 256 on some seeds. *)
let large_shapes =
  [| (256, 2); (320, 4); (384, 2); (288, 4); (448, 2); (256, 4); (512, 2); (320, 2) |]

let large_shape ~conn i = large_shapes.((2 * i) + conn)

let serve_admission seed =
  let trees =
    Array.init 2 (fun conn ->
        let rng = Random.State.make [| seed; conn; 11 |] in
        Array.init 32 (fun i ->
            let cap, r = admission_shape ~conn i in
            tree rng ~name:(Printf.sprintf "a%d-%d" conn i) ~cap ~r))
  in
  {
    name = "serve-admission";
    connections = 2;
    depth = 16;
    requests = 20_000;
    trees;
    whatifs = [||];
    deck =
      [ (Op_blocking, 5); (Op_shadow, 5); (Op_admit, 4); (Op_delta, 5); (Op_resolve, 1) ];
    stats_every = 5000;
  }

(* Shapes of the one-shot solves.  [serve-large] stays where the
   convolution solver answers correctly today; the defect workload adds
   the shapes of defects D1 and D2 (see README.md).  Both use only the
   eight capacities of the resident trees and 768/1024: combine contexts
   are cached per capacity, eight at most, and a tree keeps its own
   context alive, so a ninth capacity would pin one O(cap^2) context per
   one-shot tree and grow the daemon by megabytes a request. *)
let large_whatif_shapes =
  [ (256, 4); (288, 4); (320, 4); (448, 2); (512, 2); (768, 2); (1024, 2); (1024, 2) ]

let defect_whatif_shapes =
  large_whatif_shapes
  @ List.map (fun cap -> (cap, 4)) [ 448; 512; 768; 1024 ]
  @ List.map (fun cap -> (cap, 8)) [ 256; 320; 384; 512; 768; 1024 ]

let serve_large ?(defects = false) seed =
  let trees =
    Array.init 2 (fun conn ->
        let rng = Random.State.make [| seed; conn; 13 |] in
        Array.init 4 (fun i ->
            let cap, r =
              if defects && i = 3 then [| (512, 4); (448, 4) |].(conn) else large_shape ~conn i
            in
            tree rng ~name:(Printf.sprintf "l%d-%d" conn i) ~cap ~r))
  in
  let rng = Random.State.make [| seed; 17 |] in
  let shapes = if defects then defect_whatif_shapes else large_whatif_shapes in
  let whatifs =
    Array.of_list
      (List.map
         (fun (cap, r) ->
           let m = model rng ~cap ~r in
           (m, Array.init r (fun _ -> uniform rng 0.5 2.0)))
         shapes)
  in
  {
    name = (if defects then "serve-large-defects" else "serve-large");
    connections = 2;
    depth = 2;
    requests = 1_000;
    trees;
    whatifs;
    deck =
      [ (Op_blocking, 3); (Op_shadow, 2); (Op_admit, 2); (Op_delta, 11); (Op_whatif, 2) ];
    stats_every = 5000;
  }

(* The per-connection request stream.  Each connection owns its trees,
   so it tracks their states itself and every response is a function of
   the seed alone, whatever the timing. *)
type stream = {
  w : serve;
  conn : int;
  rng : Random.State.t;
  state : int array;  (** current cycle state per owned tree *)
  mutable deck : op list;  (** the rest of the current deck *)
  mutable turn : int;  (** requests issued; trees are served round robin *)
  whatif_order : int array;  (** seeded permutation of the one-shot pool *)
  mutable whatif_count : int;
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let stream w ~seed ~conn =
  {
    w;
    conn;
    rng = Random.State.make [| seed; conn; 19 |];
    state = Array.make (Array.length w.trees.(conn)) 0;
    deck = [];
    turn = 0;
    whatif_order =
      shuffle (Random.State.make [| seed; conn; 31 |]) (Array.init (Array.length w.whatifs) Fun.id);
    whatif_count = 0;
  }

let installs w ~conn ~next_id =
  Array.to_list
    (Array.mapi
       (fun i (t : tree) ->
         let id = next_id () in
         {
           id;
           line = line_of ~id (Protocol.Solve { tree = t.name; model = t.states.(0) });
           expect = Install { conn; tree = i; state = 0 };
         })
       w.trees.(conn))

let stats_request ~id = { id; line = line_of ~id Protocol.Stats; expect = Stats }

let shutdown_request ~id =
  { id; line = line_of ~id Protocol.Shutdown; expect = Shutdown }

let next s ~id =
  let conn = s.conn in
  let trees = s.w.trees.(conn) in
  if s.deck = [] then
    s.deck <-
      Array.to_list
        (shuffle s.rng
           (Array.of_list (List.concat_map (fun (op, n) -> List.init n (fun _ -> op)) s.w.deck)));
  let op = List.hd s.deck in
  s.deck <- List.tl s.deck;
  let i = s.turn mod Array.length trees in
  s.turn <- s.turn + 1;
  let (t : tree) = trees.(i) in
  let st = s.state.(i) in
  let advance () =
    let st' = (st + 1) mod 4 in
    s.state.(i) <- st';
    st'
  in
  let mk query expect = { id; line = line_of ~id query; expect } in
  let tree = t.name in
  match op with
  | Op_whatif ->
      let k = s.whatif_order.(s.whatif_count mod Array.length s.whatif_order) in
      let name = Printf.sprintf "w%d-%d" conn s.whatif_count in
      s.whatif_count <- s.whatif_count + 1;
      mk (Protocol.Solve { tree = name; model = fst s.w.whatifs.(k) }) (Whatif { model = k })
  | Op_delta ->
      let change = step_change t st in
      let state = advance () in
      mk (Protocol.Delta { tree; changes = [ change ] }) (Delta { conn; tree = i; state })
  | Op_resolve ->
      let state = advance () in
      mk (Protocol.Solve { tree; model = t.states.(state) }) (Install { conn; tree = i; state })
  | Op_blocking -> mk (Protocol.Blocking { tree }) (Blocking { conn; tree = i; state = st })
  | Op_shadow ->
      mk (Protocol.Shadow_costs { tree; weights = t.weights }) (Shadow { conn; tree = i; state = st })
  | Op_admit ->
      let class_index = Random.State.int s.rng (Array.length t.weights) in
      mk
        (Protocol.Admit { tree; class_index; weights = t.weights })
        (Admit { conn; tree = i; state = st; class_index })

(* ---------- sweep-plan ---------- *)

let plan_sizes = [ 16; 32; 64; 128; 256; 512 ]
let plan_loads = 8

(* A capacity-planning grid: for every size and class count, a load
   sweep of one seeded class, plus a second look at the first two loads
   of each sweep (a planner revisiting its operating point), which the
   sweep cache answers. *)
let sweep_plan seed =
  let rng = Random.State.make [| seed; 23 |] in
  let groups =
    List.concat_map
      (fun cap ->
        List.map
          (fun r ->
            let base = model rng ~cap ~r in
            let c = Random.State.int rng r in
            let alpha = (Model.classes base).(c).Traffic.alpha in
            let step = uniform rng 0.05 0.15 in
            let loads =
              List.init plan_loads (fun k ->
                  with_alpha base c (alpha *. (1.0 +. (step *. float_of_int k))))
            in
            (cap, r, loads))
          [ 2; 4; 8 ])
      plan_sizes
  in
  let sweep = List.concat_map (fun (_, _, loads) -> loads) groups in
  let revisit =
    List.concat_map (fun (_, _, loads) -> List.filteri (fun k _ -> k < 2) loads) groups
  in
  (groups, sweep @ revisit)

let plan_points models =
  List.map
    (fun m ->
      Sweep.point
        ~label:(Printf.sprintf "%dx%d R=%d" (Model.inputs m) (Model.outputs m)
                  (Model.num_classes m))
        m)
    models

(* Rebuild every model of the plan from its parameters: the set-up work
   a planner pays before the first solve. *)
let rebuild_points models =
  plan_points
    (List.map
       (fun m ->
         Model.create ~inputs:(Model.inputs m) ~outputs:(Model.outputs m)
           ~classes:(Array.to_list (Model.classes m)))
       models)
