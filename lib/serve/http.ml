type request = {
  meth : string;
  target : string;
  version : string;
  path : string list;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
}

let header name r = List.assoc_opt (String.lowercase_ascii name) r.headers
let query_param name r = List.assoc_opt name r.query

(* [Connection] is a comma-separated token list, e.g. ["keep-alive, Upgrade"]. *)
let says_close connection =
  List.exists
    (fun tok -> String.lowercase_ascii (String.trim tok) = "close")
    (String.split_on_char ',' connection)

let keep_alive r =
  r.version = "HTTP/1.1"
  && not (Option.fold ~none:false ~some:says_close (header "connection" r))

(* ---- limits ---- *)

let max_line = 8192
let max_headers = 64
let max_body = 1 lsl 20

(* ---- reader ---- *)

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int; (* next unread byte *)
  mutable len : int; (* valid bytes in [buf] *)
}

let reader fd = { fd; buf = Bytes.create 8192; pos = 0; len = 0 }

(* Refill an empty buffer; false on EOF. *)
let refill r =
  r.pos <- 0;
  r.len <- Unix.read r.fd r.buf 0 (Bytes.length r.buf);
  r.len > 0

let await r = r.pos < r.len || refill r
let buffered r = r.pos < r.len

exception Bad of string

(* One CRLF- (or bare-LF-) terminated line, terminator stripped. *)
let input_line_exn r =
  let out = Buffer.create 64 in
  let rec go () =
    if r.pos >= r.len && not (refill r) then
      raise (Bad "unexpected end of stream");
    match Bytes.index_from_opt r.buf r.pos '\n' with
    | Some i when i < r.len ->
        Buffer.add_subbytes out r.buf r.pos (i - r.pos);
        r.pos <- i + 1
    | _ ->
        Buffer.add_subbytes out r.buf r.pos (r.len - r.pos);
        r.pos <- r.len;
        if Buffer.length out > max_line then raise (Bad "header line too long");
        go ()
  in
  go ();
  let line = Buffer.contents out in
  let n = String.length line in
  if Buffer.length out > max_line then raise (Bad "header line too long");
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let read_exact_exn r n =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if r.pos >= r.len && not (refill r) then
      raise (Bad "unexpected end of stream in body");
    let take = min (n - !filled) (r.len - r.pos) in
    Bytes.blit r.buf r.pos out !filled take;
    r.pos <- r.pos + take;
    filled := !filled + take
  done;
  Bytes.unsafe_to_string out

let read_to_eof_exn r =
  let out = Buffer.create 1024 in
  let rec go () =
    if r.pos < r.len || refill r then begin
      Buffer.add_subbytes out r.buf r.pos (r.len - r.pos);
      r.pos <- r.len;
      go ()
    end
  in
  go ();
  Buffer.contents out

(* ---- request parsing ---- *)

let split_target target =
  let raw_path, raw_query =
    match String.index_opt target '?' with
    | None -> (target, "")
    | Some i ->
        ( String.sub target 0 i,
          String.sub target (i + 1) (String.length target - i - 1) )
  in
  let path =
    String.split_on_char '/' raw_path |> List.filter (fun s -> s <> "")
  in
  let query =
    if raw_query = "" then []
    else
      String.split_on_char '&' raw_query
      |> List.filter_map (fun kv ->
             if kv = "" then None
             else
               match String.index_opt kv '=' with
               | None -> Some (kv, "")
               | Some i ->
                   Some
                     ( String.sub kv 0 i,
                       String.sub kv (i + 1) (String.length kv - i - 1) ))
  in
  (path, query)

let parse_header_exn line =
  match String.index_opt line ':' with
  | None -> raise (Bad (Printf.sprintf "malformed header %S" line))
  | Some i ->
      let name = String.lowercase_ascii (String.sub line 0 i) in
      let value =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      (name, value)

let read_request_exn r =
  let request_line = input_line_exn r in
  let meth, target, version =
    match String.split_on_char ' ' request_line with
    | [ m; t; v ] when String.length v >= 5 && String.sub v 0 5 = "HTTP/" ->
        (String.uppercase_ascii m, t, v)
    | _ -> raise (Bad (Printf.sprintf "malformed request line %S" request_line))
  in
  let headers = ref [] in
  let rec go n =
    if n > max_headers then raise (Bad "too many headers");
    match input_line_exn r with
    | "" -> ()
    | line ->
        headers := parse_header_exn line :: !headers;
        go (n + 1)
  in
  go 0;
  let headers = List.rev !headers in
  (* A body this parser cannot frame would be read as the next request
     on a kept-alive connection. *)
  if List.mem_assoc "transfer-encoding" headers then
    raise (Bad "Transfer-Encoding request bodies are not supported");
  let body =
    match List.assoc_opt "content-length" headers with
    | None -> ""
    | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some n when n >= 0 && n <= max_body -> read_exact_exn r n
        | Some _ -> raise (Bad "body too large")
        | None -> raise (Bad "malformed Content-Length"))
  in
  let path, query = split_target target in
  { meth; target; version; path; query; headers; body }

let read_request r =
  match read_request_exn r with
  | req -> Ok req
  | exception Bad msg -> Error msg
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* ---- writing ---- *)

let status_reason = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Unknown"

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd b !written (n - !written)
  done

let head ~status ~headers ~content_type ~framing ~keep_alive =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (status_reason status));
  Buffer.add_string b "Server: bfdn-serve\r\n";
  Buffer.add_string b (Printf.sprintf "Content-Type: %s\r\n" content_type);
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string b framing;
  Buffer.add_string b
    (if keep_alive then "Connection: keep-alive\r\n\r\n"
     else "Connection: close\r\n\r\n");
  b

let write_response fd ~status ~keep_alive ?(headers = [])
    ?(content_type = "application/json") body =
  let b =
    head ~status ~headers ~content_type ~keep_alive
      ~framing:(Printf.sprintf "Content-Length: %d\r\n" (String.length body))
  in
  Buffer.add_string b body;
  write_all fd (Buffer.contents b)

let start_chunked fd ~status ?(headers = [])
    ?(content_type = "application/jsonl") () =
  let b =
    head ~status ~headers ~content_type ~keep_alive:false
      ~framing:"Transfer-Encoding: chunked\r\n"
  in
  write_all fd (Buffer.contents b)

let send_chunk fd chunk =
  if chunk <> "" then
    write_all fd
      (Printf.sprintf "%x\r\n%s\r\n" (String.length chunk) chunk)

let finish_chunked fd = write_all fd "0\r\n\r\n"
