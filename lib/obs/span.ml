module Clock = Bfdn_util.Clock

type id = int

let none : id = -1

type value = Int of int | Float of float | Bool of bool | Str of string
type attr = string * value

type span = {
  sid : int;
  parent : int;
  name : string;
  start_ns : int; (* relative to the recorder's t0 *)
  mutable dur_ns : int;
  mutable attrs : attr list;
  mutable closed : bool;
}

type t = {
  enabled : bool;
  trace_id : string;
  t0_ns : int;
  capacity : int;
  mutable spans : span array; (* slots [0, len) are live *)
  mutable len : int;
  mutable dropped : int;
  sink : (Json.t -> unit) option;
  m : Mutex.t;
}

let disabled =
  {
    enabled = false;
    trace_id = "";
    t0_ns = 0;
    capacity = 0;
    spans = [||];
    len = 0;
    dropped = 0;
    sink = None;
    m = Mutex.create ();
  }

let create ?(capacity = 256) ?sink ~trace_id () =
  if capacity < 1 then invalid_arg "Span.create: capacity must be >= 1";
  {
    enabled = true;
    trace_id;
    t0_ns = Clock.now_ns ();
    capacity;
    spans = [||];
    len = 0;
    dropped = 0;
    sink;
    m = Mutex.create ();
  }

let enabled t = t.enabled
let trace_id t = t.trace_id

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let start ?(parent = none) t name =
  if not t.enabled then none
  else
    locked t (fun () ->
        if t.len >= t.capacity then begin
          t.dropped <- t.dropped + 1;
          none
        end
        else begin
          if t.len >= Array.length t.spans then begin
            let cap = max 8 (min t.capacity (2 * Array.length t.spans)) in
            let grown =
              Array.make cap
                {
                  sid = none;
                  parent = none;
                  name = "";
                  start_ns = 0;
                  dur_ns = 0;
                  attrs = [];
                  closed = false;
                }
            in
            Array.blit t.spans 0 grown 0 t.len;
            t.spans <- grown
          end;
          let sid = t.len in
          t.spans.(sid) <-
            {
              sid;
              parent;
              name;
              start_ns = Clock.now_ns () - t.t0_ns;
              dur_ns = 0;
              attrs = [];
              closed = false;
            };
          t.len <- sid + 1;
          sid
        end)

let valid t id = id >= 0 && id < t.len

let json_of_value = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b
  | Str s -> Json.String s

let json_of_attrs attrs =
  Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) attrs)

(* Flat JSONL form of one completed span (the sink framing); the
   hierarchy is recoverable from [parent]. *)
let flat_json t (s : span) =
  Json.Obj
    ([
       ("trace", Json.String t.trace_id);
       ("span", Json.Int s.sid);
       ("parent", if s.parent < 0 then Json.Null else Json.Int s.parent);
       ("name", Json.String s.name);
       ("start_ns", Json.Int s.start_ns);
       ("dur_ns", Json.Int s.dur_ns);
     ]
    @ if s.attrs = [] then [] else [ ("attrs", json_of_attrs s.attrs) ])

let finish ?dur_ns ?(attrs = []) t id =
  if t.enabled && id >= 0 then begin
    let emit =
      locked t (fun () ->
          if valid t id then begin
            let s = t.spans.(id) in
            if s.closed then None
            else begin
              s.dur_ns <-
                (match dur_ns with
                | Some d -> d
                | None -> Clock.now_ns () - t.t0_ns - s.start_ns);
              s.attrs <- attrs;
              s.closed <- true;
              match t.sink with None -> None | Some _ -> Some (flat_json t s)
            end
          end
          else None)
    in
    (* Emit outside the recorder lock: the sink may take its own. *)
    match (emit, t.sink) with
    | Some j, Some sink -> sink j
    | _ -> ()
  end

let length t = locked t (fun () -> t.len)
let dropped t = locked t (fun () -> t.dropped)

let tree_json t =
  if not t.enabled then
    Json.Obj
      [
        ("trace", Json.String "");
        ("dropped", Json.Int 0);
        ("spans", Json.List []);
      ]
  else
    locked t (fun () ->
        let now_rel = Clock.now_ns () - t.t0_ns in
        (* children.(i) = child sids of span i, ascending; roots likewise. *)
        let children = Array.make t.len [] in
        let roots = ref [] in
        for i = t.len - 1 downto 0 do
          let s = t.spans.(i) in
          if s.parent >= 0 && s.parent < t.len then
            children.(s.parent) <- i :: children.(s.parent)
          else roots := i :: !roots
        done;
        let rec render i =
          let s = t.spans.(i) in
          let dur = if s.closed then s.dur_ns else now_rel - s.start_ns in
          Json.Obj
            ([
               ("id", Json.Int s.sid);
               ("name", Json.String s.name);
               ("start_ns", Json.Int s.start_ns);
               ("dur_ns", Json.Int dur);
             ]
            @ (if s.closed then [] else [ ("open", Json.Bool true) ])
            @ (if s.attrs = [] then []
               else [ ("attrs", json_of_attrs s.attrs) ])
            @
            match children.(i) with
            | [] -> []
            | c -> [ ("children", Json.List (List.map render c)) ])
        in
        Json.Obj
          [
            ("trace", Json.String t.trace_id);
            ("dropped", Json.Int t.dropped);
            ("spans", Json.List (List.map render !roots));
          ])
