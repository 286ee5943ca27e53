(* Renders the report numbers a doc quotes. Each quoted number carries a
   tag right before it, an HTML comment that Markdown does not show:

     <!--q [max|min] FILE PATH [/MEMBER] [*C|/C] PREC-->NUMBER

   - FILE is a JSON report in the current directory;
   - PATH is a /-separated member path. A segment that reaches a list
     maps over its rows, and NAME[k=v,...] keeps the rows whose members
     equal the values (strings, numbers or booleans);
   - /MEMBER divides each selected value by that member of its row;
   - *C or /C scales by the constant C;
   - max or min folds the selected values; without either, PATH must
     select exactly one;
   - PREC is .N (N decimals) or ~U (an integer rounded to a multiple of U).
     Integer parts from 1 000 up are grouped by three with spaces.

   [render_quotes DOC] prints DOC with every tagged NUMBER rewritten from
   its report, and fails on a tag that does not resolve. The root dune
   file diffs EXPERIMENTS.md and README.md against their renderings, so
   `dune runtest` then `dune promote` take a regenerated report's numbers
   into the docs. *)

module Json = Bfdn_obs.Json

let doc = Sys.argv.(1)
let text = In_channel.with_open_bin doc In_channel.input_all

let fail pos fmt =
  let line = List.length (String.split_on_char '\n' (String.sub text 0 pos)) in
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s:%d: %s\n" doc line msg;
      exit 1)
    fmt

let report pos file =
  match Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
  | Ok j -> j
  | Error e -> fail pos "%s: %s" file e
  | exception Sys_error e -> fail pos "%s" e

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let member pos name row =
  match Json.member name row with
  | Some v -> v
  | None -> fail pos "no member %s" name

(* "configs[k=8,algo=bfdn]" keeps the rows of [configs] whose k is 8 and
   whose algo is "bfdn". *)
let step pos rows segment =
  let name, filters =
    match String.split_on_char '[' segment with
    | [ name ] -> (name, [])
    | [ name; sel ] when String.ends_with ~suffix:"]" sel ->
        let sel = String.sub sel 0 (String.length sel - 1) in
        let filter kv = Scanf.sscanf kv "%[^=]=%s" (fun k v -> (k, v)) in
        (name, List.map filter (String.split_on_char ',' sel))
    | _ -> fail pos "cannot read the path segment %S" segment
  in
  let equals v = function
    | Json.String s -> s = v
    | Json.Bool b -> string_of_bool b = v
    | j -> number j <> None && number j = float_of_string_opt v
  in
  let keep row =
    List.for_all
      (fun (k, v) -> Option.fold ~none:false ~some:(equals v) (Json.member k row))
      filters
  in
  List.concat_map
    (fun row ->
      match (member pos name row, filters) with
      | Json.List l, _ -> List.filter keep l
      | v, [] -> [ v ]
      | _ -> fail pos "%s is not a list" name)
    rows

let rec group digits =
  let n = String.length digits in
  if n <= 3 then digits
  else group (String.sub digits 0 (n - 3)) ^ " " ^ String.sub digits (n - 3) 3

let format pos prec v =
  let s =
    match (prec.[0], int_of_string_opt (String.sub prec 1 (String.length prec - 1))) with
    | '.', Some n -> Printf.sprintf "%.*f" n v
    | '~', Some u when u > 0 ->
        string_of_int (u * int_of_float (Float.round (v /. float_of_int u)))
    | _ -> fail pos "precision %S is not .N or ~U" prec
  in
  Str.substitute_first (Str.regexp "[0-9]+") (fun s -> group (Str.matched_string s)) s

(* [l] without its last element, and that element. *)
let split_last l =
  match List.rev l with
  | last :: rev -> (List.rev rev, last)
  | [] -> invalid_arg "split_last"

let render pos tag =
  let fold, words =
    match String.split_on_char ' ' (String.trim tag) with
    | "max" :: w -> (Some Float.max, w)
    | "min" :: w -> (Some Float.min, w)
    | w -> (None, w)
  in
  match words with
  | file :: path :: (_ :: _ as rest) ->
      let ops, prec = split_last rest in
      let divisor, scale =
        List.fold_left
          (fun (d, c) op ->
            let arg = String.sub op 1 (String.length op - 1) in
            match (op.[0], float_of_string_opt arg) with
            | '*', Some x -> (d, c *. x)
            | '/', Some x -> (d, c /. x)
            | '/', None -> (Some arg, c)
            | _ -> fail pos "cannot read %S in a tag" op)
          (None, 1.) ops
      in
      let prefix, last = split_last (String.split_on_char '/' path) in
      let value name row =
        match number (member pos name row) with
        | Some v -> v
        | None -> fail pos "%s is not a number" name
      in
      let values =
        List.map
          (fun row ->
            value last row /. Option.fold ~none:1. ~some:(fun d -> value d row) divisor)
          (List.fold_left (step pos) [ report pos file ] prefix)
      in
      let v =
        match (values, fold) with
        | [], _ -> fail pos "%s selects no row" tag
        | [ v ], _ -> v
        | v :: vs, Some f -> List.fold_left f v vs
        | vs, None ->
            fail pos "%s selects %d rows; fold them with max or min" tag (List.length vs)
      in
      format pos prec (v *. scale)
  | _ -> fail pos "tag %S needs FILE PATH PREC" tag

let () =
  let tag_re = Str.regexp "<!--q \\([^>]*\\)-->"
  and number_re = Str.regexp "-?[0-9]+\\( [0-9][0-9][0-9]\\)*\\(\\.[0-9]+\\)?" in
  let rec go pos =
    match Str.search_forward tag_re text pos with
    | exception Not_found -> print_string (String.sub text pos (String.length text - pos))
    | start ->
        let tag = Str.matched_group 1 text and stop = Str.match_end () in
        print_string (String.sub text pos (stop - pos));
        if not (Str.string_match number_re text stop) then
          fail start "no number after the tag %S" tag;
        let next = Str.match_end () in
        print_string (render start tag);
        go next
  in
  go 0
