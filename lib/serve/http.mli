(** Minimal HTTP/1.1 framing over [Unix] file descriptors.

    Just enough of the protocol for the scenario-execution service:
    persistent connections (every response head says [Connection:
    keep-alive] or [Connection: close], as the server picks),
    [Content-Length] bodies in both directions and chunked
    transfer-encoding for the live JSONL streams, which always close.
    No TLS, no content negotiation — the point is zero new dependencies
    (the engine already links [unix]).

    Hard limits guard the parser against hostile or broken clients: an
    8 KiB request line / header line, 64 headers and a 1 MiB body.
    Anything past a limit is a parse error, which the server maps to a
    4xx response. *)

type request = {
  meth : string;  (** uppercase, e.g. ["POST"] *)
  target : string;  (** the raw request target, e.g. ["/run?wait=0"] *)
  version : string;  (** as sent, e.g. ["HTTP/1.1"] *)
  path : string list;
      (** non-empty target segments: ["/jobs/3/stream"] is
          [\["jobs"; "3"; "stream"\]]; ["/"] is [\[\]] *)
  query : (string * string) list;  (** decoded [k=v] pairs, target order *)
  headers : (string * string) list;
      (** names lowercased; values stripped of surrounding whitespace *)
  body : string;
}

val header : string -> request -> string option
(** Case-insensitive header lookup. *)

val query_param : string -> request -> string option

val keep_alive : request -> bool
(** The client lets the connection carry another request: HTTP/1.1
    without a [close] token in [Connection]. HTTP/1.0 always closes. *)

(** {2 Reading}

    A [reader] wraps a file descriptor with a small refill buffer; it
    owns neither the descriptor nor its lifetime. One reader serves a
    connection for its whole life: bytes read past one message (a
    pipelined request) stay buffered for the next. *)

type reader

val reader : Unix.file_descr -> reader

val await : reader -> bool
(** Block until at least one byte is buffered; [false] on EOF. Lets a
    caller tell a connection closed between messages from one closed
    in the middle of a message. @raise Unix.Unix_error on a socket
    error or an expired [SO_RCVTIMEO]. *)

val buffered : reader -> bool
(** Bytes are buffered that no message has consumed yet. *)

val read_request_exn : reader -> request
(** Parse one request (request line, headers, then a [Content-Length]
    body if announced). A request announcing [Transfer-Encoding] is
    refused: its body could not be framed.
    @raise Bad on malformed framing, a limit violation or EOF before a
    complete request.
    @raise Unix.Unix_error on a socket error, [EAGAIN] when an
    [SO_RCVTIMEO] deadline expired mid-request. *)

val read_request : reader -> (request, string) result
(** {!read_request_exn} with its failures as a message. *)

(** {2 Low-level framing}

    The primitives [read_request] is built from, shared with {!Client}
    so both sides of the wire use one framing implementation. All raise
    {!Bad} on malformed input or premature EOF. *)

exception Bad of string

val input_line_exn : reader -> string
(** One line, CRLF (or bare LF) stripped. *)

val read_exact_exn : reader -> int -> string

val read_to_eof_exn : reader -> string

val parse_header_exn : string -> string * string
(** ["Name: value"] → [("name", "value")] (name lowercased, value
    trimmed). *)

val write_all : Unix.file_descr -> string -> unit
(** Loop until the whole string is written. *)

(** {2 Writing} *)

val write_response :
  Unix.file_descr ->
  status:int ->
  keep_alive:bool ->
  ?headers:(string * string) list ->
  ?content_type:string ->
  string ->
  unit
(** One complete response with [Content-Length], the standard server
    headers and [Connection: keep-alive] or [Connection: close] as
    [keep_alive] says. [content_type] defaults to [application/json]. *)

val start_chunked :
  Unix.file_descr ->
  status:int ->
  ?headers:(string * string) list ->
  ?content_type:string ->
  unit ->
  unit
(** Response head with [Transfer-Encoding: chunked] and [Connection:
    close]; follow with {!send_chunk} and {!finish_chunked}. [content_type] defaults to
    [application/jsonl]. *)

val send_chunk : Unix.file_descr -> string -> unit
(** One chunk, written and flushed immediately (empty strings are
    skipped: an empty chunk would terminate the stream). *)

val finish_chunked : Unix.file_descr -> unit
(** The terminating zero-length chunk. *)
