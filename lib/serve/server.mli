(** The crossbar_serve daemon loop.

    Serves the line-delimited JSON protocol ({!Protocol}, docs/SERVE.md)
    over a caller-supplied input/output pair — the CLI passes
    stdin/stdout — and, optionally, a Unix-domain socket accepting any
    number of concurrent clients.

    Batching: the loop blocks until at least one request is readable,
    then drains every complete line already buffered on any connection
    (up to [batch_limit]) into one batch and hands it to
    {!Batcher.execute}, inline on the loop's domain.  Under load,
    queries pile up behind the batch being served and are served
    together off shared hot trees; an idle daemon answers single
    requests immediately.  The batch's tree groups fan out over the
    process's persistent worker domains, so no batch spawns a domain.
    Responses are written back to each request's own connection, in
    arrival order per connection — one write per connection per batch.
    Each connection's partial line is carried in a buffer and only
    newly read bytes are scanned for line ends, so a line split across
    many small reads costs linear time. *)

type config = {
  socket_path : string option;
      (** also serve a Unix-domain socket at this path (created at
          startup, unlinked on shutdown) *)
  capacity : int option;
      (** registry LRU capacity — resident hot trees ({!Registry.create}) *)
  domains : int option;
      (** batcher pool width (default
          {!Crossbar_engine.Pool.recommended_domains}) *)
  batch_limit : int;  (** max requests served as one batch *)
}

val default_config : config
(** No socket, unbounded registry, default pool width,
    [batch_limit = 256]. *)

val run :
  ?config:config ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  unit ->
  unit
(** Serve until a [shutdown] request arrives, or until [input] reaches
    end-of-file with no socket configured and no socket client still
    connected.  Never raises on malformed input or solver errors (they
    become [ok:false] responses); socket clients that disconnect
    mid-response are dropped silently.
    @raise Invalid_argument if [config] is inconsistent
    ([batch_limit < 1], [capacity < 1], [domains < 1]).
    @raise Unix.Unix_error if the socket path cannot be bound. *)
