module Json = Crossbar_engine.Json
module Telemetry = Crossbar_engine.Telemetry

type config = {
  socket_path : string option;
  capacity : int option;
  domains : int option;
  batch_limit : int;
}

let default_config =
  { socket_path = None; capacity = None; domains = None; batch_limit = 256 }

(* One input stream: the primary input or an accepted socket client.
   [carry] holds the partial line between reads; [outbox] the responses
   of the batch being answered, written to [out] in one piece. *)
type conn = {
  fd : Unix.file_descr;
  out : Unix.file_descr;
  carry : Buffer.t;
  outbox : Buffer.t;
  mutable queued : int;  (** requests read but not yet answered *)
  mutable open_ : bool;
  primary : bool;  (** the input/output pair given to [run] *)
}

type item = Request of Protocol.request | Malformed of Json.t * string

let connection ~fd ~out ~primary =
  {
    fd;
    out;
    carry = Buffer.create 4096;
    outbox = Buffer.create 4096;
    queued = 0;
    open_ = true;
    primary;
  }

(* Write the whole string; false if the peer is gone.  A client that
   disconnects mid-response is its own problem: the daemon drops the
   connection and keeps serving everyone else. *)
let write_all fd text =
  let total = String.length text in
  let rec loop offset =
    if offset >= total then true
    else
      match Unix.write_substring fd text offset (total - offset) with
      | written -> loop (offset + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop offset
      | exception
          Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
        ->
          false
  in
  loop 0

let flush_outbox conn =
  if Buffer.length conn.outbox > 0 then begin
    if not (write_all conn.out (Buffer.contents conn.outbox)) then
      conn.open_ <- false;
    (* Keep the capacity: the next batch's responses are about as long. *)
    Buffer.clear conn.outbox
  end

let rec newline chunk i n =
  if i >= n then None
  else if Bytes.get chunk i = '\n' then Some i
  else newline chunk (i + 1) n

(* Split the [n] bytes just read into complete lines, joining the first
   with the carried partial line and carrying the trailing partial line
   (if any).  Only the new bytes are scanned for newlines, so a long
   line arriving in small reads costs linear time. *)
let push_chunk conn chunk n =
  let rec split acc start =
    match newline chunk start n with
    | Some stop ->
        let line =
          if Buffer.length conn.carry = 0 then
            Bytes.sub_string chunk start (stop - start)
          else begin
            Buffer.add_subbytes conn.carry chunk start (stop - start);
            let line = Buffer.contents conn.carry in
            Buffer.reset conn.carry;
            line
          end
        in
        let acc =
          if String.equal (String.trim line) "" then acc else line :: acc
        in
        split acc (stop + 1)
    | None ->
        Buffer.add_subbytes conn.carry chunk start (n - start);
        List.rev acc
  in
  split [] 0

let parse_line line =
  match Protocol.request_of_line line with
  | Ok request -> Request request
  | Error message ->
      (* Salvage the id when the line was at least well-formed JSON, so
         the client can correlate the error with its request. *)
      let id =
        match Json.of_string line with
        | Ok json -> (
            match Json.member "id" json with Some id -> id | None -> Json.Null)
        | Error _ -> Json.Null
      in
      Malformed (id, message)

(* Read whatever is available into the server's [chunk] buffer;
   returns parsed items in arrival order.  On EOF the remaining carry (a
   final unterminated line) is parsed too, and the connection is marked
   closed. *)
let read_available conn chunk =
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 ->
      conn.open_ <- false;
      let leftover = String.trim (Buffer.contents conn.carry) in
      Buffer.reset conn.carry;
      if String.equal leftover "" then [] else [ parse_line leftover ]
  | n -> List.map parse_line (push_chunk conn chunk n)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      conn.open_ <- false;
      []

let listen_socket path =
  (* A stale socket file from a previous run would make bind fail. *)
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  fd

let validate config =
  if config.batch_limit < 1 then
    invalid_arg
      (Printf.sprintf "Server.run: batch_limit=%d < 1" config.batch_limit);
  (match config.capacity with
  | Some c when c < 1 ->
      invalid_arg (Printf.sprintf "Server.run: capacity=%d < 1" c)
  | Some _ | None -> ());
  match config.domains with
  | Some d when d < 1 ->
      invalid_arg (Printf.sprintf "Server.run: domains=%d < 1" d)
  | Some _ | None -> ()

let run ?(config = default_config) ~input ~output () =
  validate config;
  let registry = Registry.create ?capacity:config.capacity () in
  let telemetry = Telemetry.create () in
  let listen =
    Option.map (fun path -> (listen_socket path, path)) config.socket_path
  in
  let conns = ref [ connection ~fd:input ~out:output ~primary:true ] in
  let pending : (conn * item) Queue.t = Queue.create () in
  (* One read buffer for every connection: reads never overlap. *)
  let chunk = Bytes.create 65536 in
  (* Pop the oldest [batch_limit] pending items as one batch. *)
  let take_batch () =
    let size = min config.batch_limit (Queue.length pending) in
    Array.init size (fun _ -> Queue.pop pending)
  in
  (* Serve one batch on this domain: the well-formed requests go to the
     batcher, whose responses come back in request order, and every
     item's response — malformed lines included — is queued on its own
     connection in arrival order, then each connection's share is
     written at once. *)
  let flush_batch () =
    let batch = take_batch () in
    let requests =
      Array.of_list
        (List.filter_map
           (function _, Request r -> Some r | _, Malformed _ -> None)
           (Array.to_list batch))
    in
    let outcome =
      Batcher.execute ?domains:config.domains ~registry ~telemetry requests
    in
    let next = ref 0 in
    Array.iter
      (fun (conn, item) ->
        let response =
          match item with
          | Malformed (id, message) -> Protocol.error_response ~id message
          | Request _ ->
              incr next;
              outcome.Batcher.responses.(!next - 1)
        in
        conn.queued <- conn.queued - 1;
        (* Serialised in place: no per-response string. *)
        Json.to_buffer conn.outbox response;
        Buffer.add_char conn.outbox '\n')
      batch;
    List.iter flush_outbox !conns;
    outcome.Batcher.shutdown
  in
  let accept_client fd =
    match Unix.accept fd with
    | client, _ ->
        conns := !conns @ [ connection ~fd:client ~out:client ~primary:false ]
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
  in
  (* Runs exactly once, as the [Fun.protect] finalizer around the loop:
     the listen socket and every client fd are closed. *)
  let cleanup () =
    (match listen with
    | Some (fd, path) ->
        Unix.close fd;
        (match Unix.unlink path with
        | () -> ()
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ())
    | None -> ());
    List.iter
      (fun conn -> if not conn.primary then Unix.close conn.fd)
      !conns
  in
  let rec loop () =
    (* Drop (and close) dead socket clients once their queued requests
       are answered; the primary stream is never closed here — the
       caller owns its descriptors. *)
    let kept, dead =
      List.partition (fun c -> c.open_ || c.primary || c.queued > 0) !conns
    in
    List.iter (fun c -> Unix.close c.fd) dead;
    conns := kept;
    let live = List.filter (fun c -> c.open_) !conns in
    let watched =
      List.map (fun c -> c.fd) live
      @ match listen with Some (fd, _) -> [ fd ] | None -> []
    in
    match watched with
    | [] ->
        (* Inputs exhausted and no socket to accept from: drain and
           stop. *)
        if Queue.is_empty pending then ()
        else if flush_batch () then ()
        else loop ()
    | _ :: _ ->
        (* Block when idle; poll when a batch is queued, so every line
           that arrived while the previous batch was being served joins
           it. *)
        let timeout = if Queue.is_empty pending then -1.0 else 0.0 in
        let readable, _, _ =
          match Unix.select watched [] [] timeout with
          | result -> result
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        (match listen with
        | Some (fd, _) when List.memq fd readable -> accept_client fd
        | Some _ | None -> ());
        List.iter
          (fun conn ->
            if List.memq conn.fd readable then
              List.iter
                (fun item ->
                  conn.queued <- conn.queued + 1;
                  Queue.push (conn, item) pending)
                (read_available conn chunk))
          live;
        if Queue.is_empty pending then loop ()
        else if
          (* Serve once no more input is immediately available, or the
             batch cap is reached. *)
          readable = [] || Queue.length pending >= config.batch_limit
        then if flush_batch () then () else loop ()
        else loop ()
  in
  Fun.protect ~finally:cleanup loop
