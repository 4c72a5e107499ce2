(* The independent answer check.  Expected values come from Algorithm 2
   (Mva) and the knapsack occupancy law (Occupancy), never from the
   convolution solver the daemon runs, and are compared with a relative
   tolerance so that a reordered but correct kernel still passes. *)

module Model = Crossbar.Model
module Mva = Crossbar.Mva
module Measures = Crossbar.Measures
module Occupancy = Crossbar.Occupancy
module Revenue = Crossbar.Revenue
module Json = Crossbar_engine.Json

let rtol = 1e-8

type expect = {
  non_blocking : float array;
  concurrency : float array;
  busy_ports : float;
  log_g : float;
  revenue : float;  (** [W(N) = sum_r w_r E_r] *)
  shadow : float array;  (** [W(N) - W(N - a_r I)] per class *)
}

let close ?(scale = 0.0) a b =
  Float.abs (a -. b) <= rtol *. Float.max scale (Float.max (Float.abs a) (Float.abs b))

let revenue_of (m : Measures.t) weights =
  let w = ref 0.0 in
  Array.iteri (fun r (c : Measures.per_class) -> w := !w +. (weights.(r) *. c.Measures.concurrency))
    m.Measures.per_class;
  !w

(* Occupancy's mean concurrency per class; the oracle refuses to run if
   its two halves disagree, since then neither can be trusted. *)
let occupancy_means model =
  Array.init (Model.num_classes model) (fun r ->
      let p = Occupancy.class_distribution model ~class_index:r in
      let mean = ref 0.0 in
      Array.iteri (fun m pm -> mean := !mean +. (float_of_int m *. pm)) p;
      !mean)

exception Oracle_disagrees of string

let expect model ~weights =
  let solved = Mva.solve model in
  let m = Mva.measures solved in
  let occ = occupancy_means model in
  Array.iteri
    (fun r (c : Measures.per_class) ->
      if not (close ~scale:1e-6 c.Measures.concurrency occ.(r)) then
        raise
          (Oracle_disagrees
             (Printf.sprintf "%dx%d R=%d class %d: Mva E=%.17g, Occupancy E=%.17g"
                (Model.inputs model) (Model.outputs model) (Model.num_classes model)
                r c.Measures.concurrency occ.(r))))
    m.Measures.per_class;
  let w = revenue_of m weights in
  let reduced = Hashtbl.create 2 in
  let shadow =
    Array.init (Model.num_classes model) (fun r ->
        let a = Model.bandwidth model r in
        if a >= Model.capacity model then w
        else begin
          let wr =
            match Hashtbl.find_opt reduced a with
            | Some wr -> wr
            | None ->
                let rm = Revenue.reduced_model model ~ports:a in
                let wr = revenue_of (Mva.measures (Mva.solve rm)) weights in
                Hashtbl.add reduced a wr;
                wr
          in
          w -. wr
        end)
  in
  {
    non_blocking = Array.map (fun (c : Measures.per_class) -> c.Measures.non_blocking) m.per_class;
    concurrency = occ;
    busy_ports = m.Measures.busy_ports;
    log_g = Mva.log_normalization solved;
    revenue = w;
    shadow;
  }

(* ---------- response checks ---------- *)

(* Why a response failed.  [Nan] and [Not_ok] carry the daemon's own
   words; the workload summary maps them onto the defect list. *)
type failure =
  | Missing  (** no response before the daemon died or stalled *)
  | Not_ok of string  (** [ok:false] with this error *)
  | Nan of string  (** a measure came back non-finite ([null]) *)
  | Mismatch of string  (** finite but off by more than [rtol] *)
  | Malformed of string  (** not the response the protocol promises *)

let category = function
  | Missing -> "missing"
  | Not_ok _ -> "ok:false"
  | Nan _ -> "nan"
  | Mismatch _ -> "mismatch"
  | Malformed _ -> "malformed"

let detail = function
  | Missing -> "no response"
  | Not_ok s | Nan s | Mismatch s | Malformed s -> s

exception Fail of failure

let member key json =
  match Json.member key json with
  | Some v -> v
  | None -> raise (Fail (Malformed (Printf.sprintf "missing field %S" key)))

let number what = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | Json.Null -> raise (Fail (Nan what))
  | _ -> raise (Fail (Malformed (what ^ ": not a number")))

let items what = function
  | Json.List l -> Array.of_list l
  | _ -> raise (Fail (Malformed (what ^ ": not a list")))

let check_value ?scale what ~served ~expected =
  if Float.is_nan served then raise (Fail (Nan what));
  if not (close ?scale served expected) then
    raise
      (Fail
         (Mismatch
            (Printf.sprintf "%s: served %.10g, oracle %.10g (rel %.2g)" what served
               expected
               (Float.abs (served -. expected) /. Float.max 1e-300 (Float.abs expected)))))

let check_measures e json =
  let per_class = items "per_class" (member "per_class" json) in
  if Array.length per_class <> Array.length e.non_blocking then
    raise (Fail (Malformed "per_class: wrong class count"));
  Array.iteri
    (fun r c ->
      let get k = number (Printf.sprintf "class %d %s" r k) (member k c) in
      check_value (Printf.sprintf "class %d B_r" r) ~served:(get "non_blocking")
        ~expected:e.non_blocking.(r);
      check_value (Printf.sprintf "class %d E_r" r) ~served:(get "concurrency")
        ~expected:e.concurrency.(r))
    per_class;
  check_value "busy_ports" ~served:(number "busy_ports" (member "busy_ports" json))
    ~expected:e.busy_ports

let check_solved e json =
  check_measures e (member "measures" json);
  check_value "log_g" ~served:(number "log_g" (member "log_g" json)) ~expected:e.log_g

let check_blocking e json =
  let classes = items "classes" (member "classes" json) in
  if Array.length classes <> Array.length e.non_blocking then
    raise (Fail (Malformed "classes: wrong class count"));
  Array.iteri
    (fun r c ->
      let b = number (Printf.sprintf "class %d non_blocking" r) (member "non_blocking" c) in
      check_value (Printf.sprintf "class %d B_r" r) ~served:b ~expected:e.non_blocking.(r);
      let bl = number (Printf.sprintf "class %d blocking" r) (member "blocking" c) in
      check_value (Printf.sprintf "class %d 1-B_r" r) ~served:bl
        ~expected:(1.0 -. e.non_blocking.(r)))
    classes

(* Shadow costs are differences of nearly equal revenues, so they are
   compared on the scale of the revenue itself. *)
let check_shadow e json =
  check_value "revenue" ~served:(number "revenue" (member "revenue" json)) ~expected:e.revenue;
  let costs = items "shadow_costs" (member "shadow_costs" json) in
  if Array.length costs <> Array.length e.shadow then
    raise (Fail (Malformed "shadow_costs: wrong class count"));
  Array.iteri
    (fun r c ->
      check_value ~scale:e.revenue (Printf.sprintf "class %d shadow cost" r)
        ~served:(number "shadow cost" c) ~expected:e.shadow.(r))
    costs

let check_admit e ~weights ~class_index json =
  let shadow = number "shadow_cost" (member "shadow_cost" json) in
  check_value ~scale:e.revenue "shadow_cost" ~served:shadow ~expected:e.shadow.(class_index);
  let w = weights.(class_index) in
  let admit = match member "admit" json with Json.Bool b -> b | _ -> raise (Fail (Malformed "admit")) in
  let marginal = close ~scale:e.revenue w e.shadow.(class_index) in
  if (not marginal) && admit <> (w >= e.shadow.(class_index)) then
    raise (Fail (Mismatch (Printf.sprintf "admit=%b but weight %.6g vs shadow cost %.6g" admit w e.shadow.(class_index))))

(* [check ~id json f]: demand [ok:true] and the echoed [id], then run
   the op-specific comparison [f]. *)
let check ~id json f =
  try
    (match Json.member "id" json with
    | Some (Json.Int i) when i = id -> ()
    | _ -> raise (Fail (Malformed (Printf.sprintf "response does not echo id %d" id))));
    (match Json.member "ok" json with
    | Some (Json.Bool true) -> ()
    | Some (Json.Bool false) ->
        let msg =
          match Json.member "error" json with Some (Json.String s) -> s | _ -> "(no error text)"
        in
        raise (Fail (Not_ok msg))
    | _ -> raise (Fail (Malformed "missing ok")));
    f json;
    None
  with Fail failure -> Some failure

let check_line ~id line f =
  match Json.of_string line with
  | Error e -> Some (Malformed ("unparsable response: " ^ e))
  | Ok json -> check ~id json f
