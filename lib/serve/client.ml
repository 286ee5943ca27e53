type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

let response_header name r =
  List.assoc_opt (String.lowercase_ascii name) r.headers

exception Bad of string

(* The response, and whether its connection may carry another request:
   the server said [keep-alive], the body was framed, and nothing past it
   arrived. *)
let read_response ?on_chunk r =
  let status_line = Http.input_line_exn r in
  let status =
    match String.split_on_char ' ' status_line with
    | _ :: code :: _ -> (
        match int_of_string_opt code with
        | Some c -> c
        | None -> raise (Bad ("bad status line: " ^ status_line)))
    | _ -> raise (Bad ("bad status line: " ^ status_line))
  in
  let headers = ref [] in
  let rec read_headers () =
    match Http.input_line_exn r with
    | "" -> ()
    | line ->
        headers := Http.parse_header_exn line :: !headers;
        read_headers ()
  in
  read_headers ();
  let headers = List.rev !headers in
  let body, framed =
    match
      ( List.assoc_opt "transfer-encoding" headers,
        List.assoc_opt "content-length" headers )
    with
    | Some te, _ when String.lowercase_ascii (String.trim te) <> "chunked" ->
        raise (Bad ("unsupported transfer-encoding: " ^ te))
    | Some _, _ ->
        let out = Buffer.create 1024 in
        let rec chunks () =
          let size_line = String.trim (Http.input_line_exn r) in
          let size =
            match int_of_string_opt ("0x" ^ size_line) with
            | Some n when n >= 0 -> n
            | _ -> raise (Bad ("bad chunk size: " ^ size_line))
          in
          if size = 0 then
            (* trailer line after the last chunk; tolerate a hangup *)
            ignore (try Http.input_line_exn r with Http.Bad _ -> "")
          else begin
            let chunk = Http.read_exact_exn r size in
            ignore (Http.input_line_exn r);
            Buffer.add_string out chunk;
            Option.iter (fun f -> f chunk) on_chunk;
            chunks ()
          end
        in
        chunks ();
        (Buffer.contents out, true)
    | _, Some cl -> (
        match int_of_string_opt (String.trim cl) with
        | Some n when n >= 0 -> (Http.read_exact_exn r n, true)
        | _ -> raise (Bad ("bad Content-Length: " ^ cl)))
    | None, None -> (Http.read_to_eof_exn r, false)
  in
  let keep_alive =
    match List.assoc_opt "connection" headers with
    | Some v -> String.lowercase_ascii v = "keep-alive"
    | None -> false
  in
  ({ status; headers; body }, keep_alive && framed && not (Http.buffered r))

(* ---- idle connections ---- *)

(* Per (host, port), a LIFO stack of idle kept-alive sockets: the most
   recently used, likeliest still open, goes out first. The bound keeps
   one socket per concurrent caller of a small client pool. *)
let max_idle = 8

let idle : (string * int, Unix.file_descr list) Hashtbl.t = Hashtbl.create 4
let idle_m = Mutex.create ()
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* An idle socket that is readable holds the server's EOF (or stray
   bytes): it cannot carry a request. *)
let rec take_idle key =
  Mutex.lock idle_m;
  let fd =
    match Hashtbl.find_opt idle key with
    | Some (fd :: rest) ->
        Hashtbl.replace idle key rest;
        Some fd
    | _ -> None
  in
  Mutex.unlock idle_m;
  match fd with
  | None -> None
  | Some fd -> (
      match Unix.select [ fd ] [] [] 0.0 with
      | [], _, _ -> Some fd
      | _ ->
          close_quietly fd;
          take_idle key
      | exception Unix.Unix_error _ ->
          close_quietly fd;
          take_idle key)

let put_idle key fd =
  Mutex.lock idle_m;
  let fds = Option.value ~default:[] (Hashtbl.find_opt idle key) in
  let kept = List.length fds < max_idle in
  if kept then Hashtbl.replace idle key (fd :: fds);
  Mutex.unlock idle_m;
  if not kept then close_quietly fd

(* ---- one exchange ---- *)

let sigpipe_ignored = Atomic.make false

let connect host port =
  let fail msg = Error (Printf.sprintf "connect %s:%d: %s" host port msg) in
  match Unix.inet_addr_of_string host with
  | exception Failure _ -> fail "not a numeric IPv4 address"
  | addr -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
      | () ->
          (* As on the server: a request larger than one write must not
             wait for the acknowledgement of its head. *)
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          close_quietly fd;
          fail (Unix.error_message e))

type exchange =
  | Stale of string
      (** the connection failed before any response byte: EOF, EPIPE or
          ECONNRESET *)
  | Done of (response, string) result * bool  (** and: reusable *)

let exchange ?on_chunk fd wire =
  let r = Http.reader fd in
  match
    Http.write_all fd wire;
    Http.await r
  with
  | false -> Stale "unexpected end of stream"
  | exception Unix.Unix_error (((Unix.EPIPE | Unix.ECONNRESET) as e), _, _) ->
      Stale (Unix.error_message e)
  | exception Unix.Unix_error (e, _, _) ->
      Done (Error (Unix.error_message e), false)
  | true -> (
      match read_response ?on_chunk r with
      | resp, reusable -> Done (Ok resp, reusable)
      | exception (Bad msg | Http.Bad msg) -> Done (Error msg, false)
      | exception Unix.Unix_error (e, _, _) ->
          Done (Error (Unix.error_message e), false))

let request ?(host = "127.0.0.1") ?(port = 8080) ?body ?on_chunk ~meth ~path ()
    =
  if not (Atomic.get sigpipe_ignored) then begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    Atomic.set sigpipe_ignored true
  end;
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s %s HTTP/1.1\r\n" (String.uppercase_ascii meth) path);
  Buffer.add_string b (Printf.sprintf "Host: %s:%d\r\n" host port);
  (match body with
  | Some body ->
      Buffer.add_string b
        (Printf.sprintf
           "Content-Type: application/json\r\nContent-Length: %d\r\n"
           (String.length body))
  | None -> ());
  Buffer.add_string b "\r\n";
  Option.iter (Buffer.add_string b) body;
  let wire = Buffer.contents b in
  let key = (host, port) in
  let finish fd result reusable =
    if reusable then put_idle key fd else close_quietly fd;
    result
  in
  let fresh () =
    match connect host port with
    | Error _ as e -> e
    | Ok fd -> (
        match exchange ?on_chunk fd wire with
        | Done (result, reusable) -> finish fd result reusable
        | Stale msg ->
            close_quietly fd;
            Error msg)
  in
  (* The server closes a connection only between requests, so a reused
     socket that failed before any response byte never ran this request:
     it is retried once, on a fresh connection. *)
  match take_idle key with
  | None -> fresh ()
  | Some fd -> (
      match exchange ?on_chunk fd wire with
      | Done (result, reusable) -> finish fd result reusable
      | Stale _ ->
          close_quietly fd;
          fresh ())
