(** Minimal JSON emitter and parser shared by the report and trace
    sinks and by the {!Bfdn_scenario} spec files. Non-finite floats are
    emitted as [null] to keep the output standard JSON; finite floats
    use a shortest-round-trip rendering, so every value written to a
    BENCH_*.json or trace line parses back to exactly the same double. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. *)

val float_to_string : float -> string
(** Shortest decimal form [s] with [float_of_string s = f]: tries 15 and
    16 significant digits before falling back to the always-exact 17.
    Only called on finite floats. *)

val escape : string -> string
(** JSON string-body escaping (quotes not included). *)

type error = { msg : string; line : int; col : int; offset : int }
(** A parse failure with its position: [line]/[col] are 1-based ([col]
    counts bytes since the last newline), [offset] is the 0-based byte
    offset into the input. *)

val error_to_string : error -> string
(** ["<msg> at line L, column C (byte N)"]. *)

val of_string_pos : string -> (t, error) result
(** Parse a complete JSON document (standard JSON; trailing garbage is
    an error). Numbers without a fraction or exponent part decode as
    [Int], everything else as [Float] — the inverse of {!to_string}, so
    values emitted by this module round-trip constructor-for-constructor
    (except non-finite floats, which were emitted as [null]). Failures
    carry the position where parsing stopped, so callers (the serve
    layer's HTTP 400 bodies, spec-file diagnostics) can point at the
    offending byte. *)

val of_string : string -> (t, string) result
(** {!of_string_pos} with the error rendered by {!error_to_string}. *)

val member : string -> t -> t option
(** [member key j] is the value bound to [key] when [j] is an [Obj]
    containing it, [None] otherwise. *)
