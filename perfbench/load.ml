(* The daemon under test and the single-threaded load generator that
   talks to it over its Unix socket.  Every wait is bounded: a daemon
   that exits or stops answering ends the conversation, the requests
   still in flight are reported unanswered, and the daemon is reaped and
   its socket file removed on every path. *)

let now = Crossbar_engine.Clock.now

type daemon = {
  pid : int;
  socket : string;
  log : string;  (** the daemon's stderr *)
  mutable status : Unix.process_status option;
}

let status_to_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let reap d =
  match d.status with
  | Some _ -> ()
  | None -> (
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _, st -> d.status <- Some st
      | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
          d.status <- Some (Unix.WEXITED 255))

let alive d =
  reap d;
  Option.is_none d.status

let remove_socket d = try Unix.unlink d.socket with Unix.Unix_error _ -> ()

(* Spawn [exe --socket path] with stdin at end of file, so only socket
   clients feed it; its stderr goes to [tag].log. *)
let spawn ~exe ~dir ~tag =
  let socket = Filename.concat dir (tag ^ ".sock") in
  let log = Filename.concat dir (tag ^ ".log") in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe [| exe; "--socket"; socket |] null_in null_out err
  in
  List.iter Unix.close [ null_in; null_out; err ];
  { pid; socket; log; status = None }

let connect d ~timeout =
  let deadline = now () +. timeout in
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () -> Some fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
        Unix.close fd;
        if now () > deadline || not (alive d) then None
        else begin
          Unix.sleepf 0.002;
          attempt ()
        end
  in
  attempt ()

(* Stop the daemon: a polite wait for it to exit (after a [shutdown]
   request or a crash), then SIGKILL.  Always reaps and removes the
   socket file. *)
let stop d ~grace =
  let deadline = now () +. grace in
  while alive d && now () < deadline do
    Unix.sleepf 0.005
  done;
  if alive d then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (match Unix.waitpid [] d.pid with
    | _, st -> d.status <- Some st
    | exception Unix.Unix_error _ -> d.status <- Some (Unix.WSIGNALED Sys.sigkill))
  end;
  remove_socket d;
  Option.get d.status

(* VmHWM (peak resident set) of a live process, in MB. *)
let peak_rss_mb pid =
  let field = "VmHWM:" in
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | l when String.length l > String.length field && String.sub l 0 (String.length field) = field ->
            let n = String.length field in
            Scanf.sscanf (String.sub l n (String.length l - n)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception Sys_error _ -> Float.nan (* the process has just exited *)
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Host CPU time stolen from this machine so far (all CPUs), in
   seconds: the steal column of /proc/stat, at 100 ticks a second. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
          | _ :: fields when List.length fields >= 8 -> float_of_string (List.nth fields 7) /. 100.0
          | _ -> 0.0)

(* CPU time a process has run so far, in seconds, to the nanosecond:
   its POSIX process CPU clock, which counts every thread it has run.
   The daemon's batcher runs each batch on pool domains that it spawns
   and joins, so threads come and go all the time; summing the live
   threads' /proc/PID/task/TID/schedstat would lose the time of every
   thread that has exited, and could meet a thread in the middle of
   exiting.  Unlike wall time it leaves out what the host steals, and
   unlike the tick counts of /proc/PID/stat it resolves the few
   milliseconds of a set-up.  [nan] once the process is gone. *)
external cpu_s : int -> float = "perfbench_process_cpu_s"

(* ---------- the conversation ---------- *)

type conn = {
  fd : Unix.file_descr;
  carry : Buffer.t;  (** bytes after the last complete response line *)
  inflight : (Gen.request * float) Queue.t;  (** sent, unanswered, with send time *)
  mutable closed : bool;
}

let open_conn fd = { fd; carry = Buffer.create 4096; inflight = Queue.create (); closed = false }

type answer = {
  request : Gen.request;
  line : string option;  (** [None]: never answered *)
  latency : float;  (** seconds, write to response line *)
}

type ending = Finished | Daemon_gone | Stalled

let ending_to_string = function
  | Finished -> "finished"
  | Daemon_gone -> "daemon closed the connection"
  | Stalled -> "daemon stalled"

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

let send c (r : Gen.request) =
  let t = now () in
  write_all c.fd (r.Gen.line ^ "\n") 0;
  Queue.push (r, t) c.inflight

let chunk = Bytes.create 65536

(* Read what is available; hand each complete line to [on_line]. *)
let pump c ~on_line =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> c.closed <- true
  | n ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get chunk i = '\n' then begin
          Buffer.add_subbytes c.carry chunk !start (i - !start);
          let line = Buffer.contents c.carry in
          Buffer.clear c.carry;
          start := i + 1;
          on_line line
        end
      done;
      Buffer.add_subbytes c.carry chunk !start (n - !start)
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> c.closed <- true

(* Closed loop over [conns]: each connection first sends up to [depth]
   requests from [next conn], then one more for every response, until
   [next] says stop (returns [None]) or [deadline] passes; then the
   requests in flight are drained.  [next] is asked only before the
   deadline.  Stops early if the daemon closes a connection or sends
   nothing for [stall] seconds while requests are outstanding. *)
let converse conns ~depth ~deadline ~stall ~next =
  let answers = ref [] in
  let stopped = Array.make (Array.length conns) false in
  let refill k =
    let c = conns.(k) in
    let rec go () =
      if (not stopped.(k)) && Queue.length c.inflight < depth then
        if now () >= deadline then stopped.(k) <- true
        else
          match next k with
          | None -> stopped.(k) <- true
          | Some r -> (
              match send c r with
              | () -> go ()
              | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                  c.closed <- true;
                  stopped.(k) <- true;
                  answers :=
                    { request = r; line = None; latency = 0.0 }
                    :: !answers)
    in
    go ()
  in
  Array.iteri (fun k _ -> refill k) conns;
  let last_progress = ref (now ()) in
  let ending = ref None in
  let outstanding () = Array.exists (fun c -> not (Queue.is_empty c.inflight)) conns in
  while Option.is_none !ending do
    if Array.exists (fun c -> c.closed) conns then ending := Some Daemon_gone
    else if not (outstanding ()) then ending := Some Finished
    else if now () -. !last_progress > stall then ending := Some Stalled
    else begin
      let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
      let readable, _, _ =
        try Unix.select fds [] [] 0.25 with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      Array.iteri
        (fun k c ->
          if List.memq c.fd readable then begin
            pump c ~on_line:(fun line ->
                let t = now () in
                last_progress := t;
                match Queue.take_opt c.inflight with
                | Some (r, sent) ->
                    answers :=
                      { request = r; line = Some line; latency = t -. sent }
                      :: !answers
                | None -> ());
            refill k
          end)
        conns
    end
  done;
  (* Whatever is still in flight was never answered. *)
  Array.iter
    (fun c ->
      Queue.iter
        (fun (r, _) ->
          answers := { request = r; line = None; latency = 0.0 } :: !answers)
        c.inflight;
      Queue.clear c.inflight)
    conns;
  (List.rev !answers, Option.get !ending)

(* Send fixed request lists, [lists.(k)] on connection [k]. *)
let exchange conns lists ~depth ~stall =
  let queues = Array.map (fun l -> Queue.of_seq (List.to_seq l)) lists in
  converse conns ~depth ~deadline:infinity ~stall ~next:(fun k ->
      if k < Array.length queues then Queue.take_opt queues.(k) else None)
