(** Minimal JSON tree, writer and validating parser.

    The telemetry snapshots the engine emits must be consumable by any
    downstream tooling, so the writer produces strict RFC 8259 output
    (non-finite floats are emitted as [null]) and the parser exists so
    the bench harness can re-read what it just wrote and fail loudly on
    malformed output instead of shipping a corrupt snapshot.  No
    third-party dependency is involved. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

val to_string : t -> string
(** Compact single-line rendering.  A float prints as the shortest
    decimal that reads back to the same bits (at most 17 significant
    digits; the closest such decimal when several qualify), in plain
    notation for [1e-6 <= |f| < 1e21] and as [de±x] outside it.  An
    integral value keeps a [.0] and a non-finite one prints as [null],
    so every float token re-parses as [Float]. *)

val to_buffer : Buffer.t -> t -> unit
(** [to_buffer b json] appends {!to_string}[ json] to [b] without
    building the string. *)

val pp : Format.formatter -> t -> unit
(** Indented rendering (2-space), suitable for checked-in snapshots. *)

val of_string : string -> (t, string) result
(** Strict parser for the subset {!to_string}/{!pp} emit (all of JSON
    except exotic escapes [\uXXXX] surrogate pairs are passed through
    unvalidated).  Numbers follow RFC 8259's grammar
    ([-?(0|[1-9][0-9]* )(.[0-9]+)?([eE][+-]?[0-9]+)?]): a leading [+],
    leading zeros, a bare [.] or an empty exponent are errors.  Numbers
    with a fractional part, exponent, or outside [int] range parse as
    [Float]. *)

val member : string -> t -> t option
(** [member key (Assoc _)] looks up a field; [None] on anything else. *)
