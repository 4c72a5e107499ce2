(* In-memory spans for the traced run.  A span is recorded around a
   call from the benchmark into one layer's public function; nested
   calls record their parent, and spans of one request share its id.
   Nothing is written until [write_chrome] at exit. *)

let now = Crossbar_engine.Clock.now

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** [-1] at top level *)
  request : int;  (** [-1] when the span serves no single request *)
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let reset () =
  spans := [];
  next_id := 0;
  stack := []

let with_span ?(request = -1) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = now () in
    let finish () =
      let stop = now () in
      stack := List.tl !stack;
      spans := { id; name; start; stop; parent; request } :: !spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Self time per span name: each span's duration minus the time its
   direct children cover (children of one parent never overlap here,
   since the traced code is single-threaded).  Returns
   [(name, count, total seconds, self seconds)], by self time. *)
let self_times () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.stop -. s.start) +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let n, total, selft =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, total +. d, selft +. self))
    !spans;
  List.sort
    (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)
    (Hashtbl.fold (fun name (n, t, s) acc -> (name, n, t, s) :: acc) by_name [])

(* Spans named [name]: count and total seconds. *)
let total name =
  List.fold_left
    (fun (n, t) s -> if String.equal s.name name then (n + 1, t +. (s.stop -. s.start)) else (n, t))
    (0, 0.0) !spans

(* Chrome trace-event JSON (complete events, microseconds). *)
let write_chrome path =
  let origin = List.fold_left (fun m s -> Float.min m s.start) infinity !spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"request\":%d}}"
        s.name
        ((s.start -. origin) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent s.request)
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc
