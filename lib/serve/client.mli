(** Blocking HTTP/1.1 client for the scenario service.

    Speaks exactly the dialect {!Http} serves: persistent connections,
    [Content-Length] bodies, chunked responses decoded transparently.
    Used by the [explore submit] subcommand, the serve test-suite and
    the E18 bench — which is the point: CI exercises the real wire
    protocol, not an in-process shortcut.

    Connections are reused. A response the server sent with
    [Connection: keep-alive] leaves its socket on a per-(host, port)
    stack of idle connections (at most 8; safe to share between
    threads), and the next request to that address takes the most
    recent one that the server has not closed meanwhile. A reused
    socket that fails before any response byte (EOF, EPIPE or
    ECONNRESET) is retried once on a fresh connection: the server
    closes a connection only between requests, so the request never
    ran. Chunked streams end their connection.

    The first {!request} sets SIGPIPE to ignored for the whole process,
    as {!Server.run} does: a write to a connection the server closed
    must fail with EPIPE, not kill the client. *)

type response = {
  status : int;
  headers : (string * string) list;  (** names lowercased *)
  body : string;  (** chunked responses: the concatenated chunks *)
}

val request :
  ?host:string ->
  ?port:int ->
  ?body:string ->
  ?on_chunk:(string -> unit) ->
  meth:string ->
  path:string ->
  unit ->
  (response, string) result
(** One round-trip to [host:port] (default [127.0.0.1:8080]), on an
    idle kept-alive connection when one is open, else a new one.
    [on_chunk] fires per decoded chunk as it arrives (chunked responses
    only) — the live half of [GET /jobs/:id/stream]; the full body is
    still returned. [Error] covers a [host] that is not a numeric IPv4
    address, refused connections and protocol violations. *)

val response_header : string -> response -> string option
(** Case-insensitive header lookup. *)
