(** Structured, leveled JSONL logging.

    One log line is one compact JSON object:
    [{ts, level, msg, trace?, <attr>...}] — [ts] a Unix epoch float,
    [trace] the correlation id when the event belongs to a traced
    request (see {!Span}), and any typed attributes flattened into the
    object. The serve layer replaces its ad-hoc stderr prints with
    this, so a server's stderr is itself a JSONL stream that
    [explore tail] can render.

    Emission is mutex-guarded (connection threads and worker domains
    share one logger); a level test costs one branch, so disabled
    levels are free on request paths. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

val level_of_name : string -> level option
(** Case-insensitive inverse of {!level_name}. *)

type t

val ignore_log : t
(** Drops everything (the default server config). *)

val create : ?level:level -> (Json.t -> unit) -> t
(** A logger emitting each line's JSON to the sink (JSONL framing is
    the sink's, e.g. {!Sink.write_jsonl} + flush). [level] (default
    [Info]) is the minimum severity emitted. *)

val set_level : t -> level -> unit

val enabled : t -> level -> bool
(** Whether a message at this level would be emitted. *)

val debug : t -> ?trace:string -> ?attrs:Span.attr list -> string -> unit
val info : t -> ?trace:string -> ?attrs:Span.attr list -> string -> unit
val warn : t -> ?trace:string -> ?attrs:Span.attr list -> string -> unit
val error : t -> ?trace:string -> ?attrs:Span.attr list -> string -> unit
