module Json = Bfdn_obs.Json

type value = Int of int | Float of float | Bool of bool | String of string

type binding = string * value

type accepts =
  | Any
  | Ints of int * int
  | Floats of float * float
  | One_of of string list

type spec = { key : string; doc : string; default : value; accepts : accepts }

let spec ?(accepts = Any) key default doc = { key; doc; default; accepts }

let type_name = function
  | Int _ -> "int"
  | Float _ -> "float"
  | Bool _ -> "bool"
  | String _ -> "string"

let canon bindings =
  let sorted =
    List.sort (fun (a, _) (b, _) -> String.compare a b) bindings
  in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then
          invalid_arg ("Param.canon: duplicate parameter " ^ a);
        check rest
    | _ -> ()
  in
  check sorted;
  sorted

let same_type a b =
  match (a, b) with
  | Int _, Int _ | Float _, Float _ | Bool _, Bool _ | String _, String _ ->
      true
  | _ -> false

let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Json.float_to_string f
  | Bool b -> string_of_bool b
  | String s -> s

let describe_accepts = function
  | Any -> None
  | Ints (lo, hi) ->
      Some
        (if hi = max_int then Printf.sprintf ">= %d" lo
         else Printf.sprintf "in [%d, %d]" lo hi)
  | Floats (lo, hi) ->
      Some
        (if hi = Float.max_float then
           Printf.sprintf ">= %s" (Json.float_to_string lo)
         else
           Printf.sprintf "in [%s, %s]" (Json.float_to_string lo)
             (Json.float_to_string hi))
  | One_of names -> (
      match List.rev_map (Printf.sprintf "%S") names with
      | last :: (_ :: _ as rest) ->
          Some (String.concat ", " (List.rev rest) ^ " or " ^ last)
      | one -> Some (String.concat "" one))

(* [v] already has the spec's type. *)
let accepted s v =
  match (s.accepts, v) with
  | Ints (lo, hi), Int i -> lo <= i && i <= hi
  | Floats (lo, hi), Float f -> lo <= f && f <= hi
  | One_of names, String x -> List.exists (String.equal x) names
  | _ -> true

let validate ~schema bindings =
  let rec go = function
    | [] -> Ok ()
    | (key, v) :: rest -> (
        match List.find_opt (fun s -> String.equal s.key key) schema with
        | None -> Error (Printf.sprintf "unknown parameter %s" key)
        | Some s when not (same_type s.default v) ->
            Error
              (Printf.sprintf "parameter %s expects %s, got %s" key
                 (type_name s.default) (type_name v))
        | Some s when not (accepted s v) ->
            let got =
              match v with
              | String x -> Printf.sprintf "%S" x
              | _ -> value_to_string v
            in
            Error
              (Printf.sprintf "%s must be %s (got %s)" key
                 (Option.get (describe_accepts s.accepts))
                 got)
        | Some _ -> go rest)
  in
  go bindings

let lookup ~schema bindings key =
  match List.find_opt (fun s -> String.equal s.key key) schema with
  | None -> invalid_arg ("Param.lookup: key not in schema: " ^ key)
  | Some s -> (
      match List.assoc_opt key bindings with
      | None -> s.default
      | Some v ->
          if same_type s.default v then v
          else
            invalid_arg
              (Printf.sprintf "Param.lookup: %s expects %s, got %s" key
                 (type_name s.default) (type_name v)))

let get_int ~schema bindings key =
  match lookup ~schema bindings key with
  | Int i -> i
  | _ -> invalid_arg ("Param.get_int: " ^ key ^ " is not an int")

let get_bool ~schema bindings key =
  match lookup ~schema bindings key with
  | Bool b -> b
  | _ -> invalid_arg ("Param.get_bool: " ^ key ^ " is not a bool")

let get_string ~schema bindings key =
  match lookup ~schema bindings key with
  | String s -> s
  | _ -> invalid_arg ("Param.get_string: " ^ key ^ " is not a string")

let get_float ~schema bindings key =
  match lookup ~schema bindings key with
  | Float f -> f
  | _ -> invalid_arg ("Param.get_float: " ^ key ^ " is not a float")

let describe_schema specs =
  String.concat ""
    (List.map
       (fun s ->
         Printf.sprintf "    %-14s %-7s default %-12s %s%s\n" s.key
           (type_name s.default)
           (value_to_string s.default)
           s.doc
           (match describe_accepts s.accepts with
           | None -> ""
           | Some a -> " (" ^ a ^ ")"))
       specs)

let bindings_to_string bindings =
  String.concat ","
    (List.map (fun (k, v) -> k ^ "=" ^ value_to_string v) bindings)

let value_to_json = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b
  | String s -> Json.String s

let to_json bindings =
  Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) (canon bindings))

let json_of_schema specs =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           ((match describe_accepts s.accepts with
            | None -> []
            | Some a -> [ ("accepts", Json.String a) ])
           @ [
               ("default", value_to_json s.default);
               ("doc", Json.String s.doc);
               ("key", Json.String s.key);
               ("type", Json.String (type_name s.default));
             ]))
       specs)

let value_of_json = function
  | Json.Int i -> Ok (Int i)
  | Json.Float f -> Ok (Float f)
  | Json.Bool b -> Ok (Bool b)
  | Json.String s -> Ok (String s)
  | _ -> Error "parameter values must be scalars"

let of_json = function
  | Json.Obj kvs ->
      let rec go acc = function
        | [] -> Ok (canon (List.rev acc))
        | (k, j) :: rest -> (
            match value_of_json j with
            | Ok v -> go ((k, v) :: acc) rest
            | Error e -> Error (Printf.sprintf "parameter %s: %s" k e))
      in
      go [] kvs
  | _ -> Error "params must be a JSON object"
