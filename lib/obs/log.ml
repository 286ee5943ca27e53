type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_name s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type t = {
  mutable lvl : level;
  sink : (Json.t -> unit) option; (* None: the logger is off entirely *)
  m : Mutex.t;
}

let ignore_log = { lvl = Error; sink = None; m = Mutex.create () }

let create ?(level = Info) sink = { lvl = level; sink = Some sink; m = Mutex.create () }

let set_level t lvl = t.lvl <- lvl
let enabled t lvl = t.sink <> None && severity lvl >= severity t.lvl

let log t lvl ?trace ?(attrs = []) msg =
  match t.sink with
  | None -> ()
  | Some sink ->
      if severity lvl >= severity t.lvl then begin
        let line =
          Json.Obj
            ([
               ("ts", Json.Float (Unix.gettimeofday ()));
               ("level", Json.String (level_name lvl));
               ("msg", Json.String msg);
             ]
            @ (match trace with
              | Some id -> [ ("trace", Json.String id) ]
              | None -> [])
            @ List.map
                (fun (k, v) ->
                  ( k,
                    match v with
                    | Span.Int i -> Json.Int i
                    | Span.Float f -> Json.Float f
                    | Span.Bool b -> Json.Bool b
                    | Span.Str s -> Json.String s ))
                attrs)
        in
        Mutex.lock t.m;
        Fun.protect ~finally:(fun () -> Mutex.unlock t.m) (fun () -> sink line)
      end

let debug t ?trace ?attrs msg = log t Debug ?trace ?attrs msg
let info t ?trace ?attrs msg = log t Info ?trace ?attrs msg
let warn t ?trace ?attrs msg = log t Warn ?trace ?attrs msg
let error t ?trace ?attrs msg = log t Error ?trace ?attrs msg
