module Ascii = Bfdn_util.Ascii

let str_member key j =
  match Json.member key j with Some (Json.String s) -> Some s | _ -> None

let int_member key j =
  match Json.member key j with Some (Json.Int i) -> Some i | _ -> None

let istr key j = Option.value ~default:0 (int_member key j)
let sstr key j = Option.value ~default:"" (str_member key j)
let ms ns = float_of_int ns /. 1e6

let attr_str = function Json.String s -> s | j -> Json.to_string j

(* A record's [attrs] object as [" k=v ..."]; spans and log lines nest
   their attributes the same way. *)
let attrs_str j =
  match Json.member "attrs" j with
  | Some (Json.Obj members) ->
      String.concat ""
        (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k (attr_str v))
           members)
  | _ -> ""

let render_line j =
  match Sink.kind_of j with
  | Some Log ->
      let trace =
        match str_member "trace" j with
        | Some id -> Printf.sprintf " [%s]" id
        | None -> ""
      in
      Printf.sprintf "%-5s%s %s%s"
        (String.uppercase_ascii (sstr "level" j))
        trace (sstr "msg" j) (attrs_str j)
  | Some Span ->
      Printf.sprintf "span  %-28s +%9.3fms %10.3fms  [%s]%s" (sstr "name" j)
        (ms (istr "start_ns" j))
        (ms (istr "dur_ns" j))
        (sstr "trace" j) (attrs_str j)
  | Some Frame ->
      Printf.sprintf "round %6d  explored %8d  dangling %5d" (istr "round" j)
        (istr "explored" j) (istr "dangling" j)
  | Some Row ->
      Printf.sprintf "row   seed %d  %s" (istr "seed" j) (sstr "fingerprint" j)
  | Some Status ->
      Printf.sprintf "job   %d %s  [%s]" (istr "id" j) (sstr "status" j)
        (sstr "trace" j)
  | None -> Json.to_string j

(* ---- span timeline ---- *)

type srec = {
  r_trace : string;
  r_id : int;
  r_parent : int;
  r_name : string;
  r_start : int;
  r_dur : int;
}

let srec_of j =
  match Sink.kind_of j with
  | Some Span ->
      Some
        {
          r_trace = sstr "trace" j;
          r_id = Option.value ~default:(-1) (int_member "span" j);
          r_parent = Option.value ~default:(-1) (int_member "parent" j);
          r_name = sstr "name" j;
          r_start = istr "start_ns" j;
          r_dur = istr "dur_ns" j;
        }
  | _ -> None

let span_timeline ?(width = 48) records =
  let spans = List.filter_map srec_of records in
  if spans = [] then ""
  else begin
    let buf = Buffer.create 1024 in
    let traces =
      List.fold_left
        (fun acc r -> if List.mem r.r_trace acc then acc else r.r_trace :: acc)
        [] spans
      |> List.rev
    in
    List.iter
      (fun trace ->
        let group =
          List.filter (fun r -> r.r_trace = trace) spans
          |> List.sort (fun a b -> compare (a.r_start, a.r_id) (b.r_start, b.r_id))
        in
        let depth_of =
          let tbl = Hashtbl.create 16 in
          List.iter (fun r -> Hashtbl.replace tbl r.r_id r.r_parent) group;
          fun id ->
            let rec go id acc =
              if acc > 16 then acc
              else
                match Hashtbl.find_opt tbl id with
                | Some p when p >= 0 -> go p (acc + 1)
                | _ -> acc
            in
            go id 0
        in
        let t0 = List.fold_left (fun a r -> min a r.r_start) max_int group in
        let t1 =
          List.fold_left (fun a r -> max a (r.r_start + r.r_dur)) min_int group
        in
        let span_ns = max 1 (t1 - t0) in
        Printf.bprintf buf "trace %s  (%d spans, %.3fms)\n" trace
          (List.length group) (ms span_ns);
        List.iter
          (fun r ->
            let indent = String.make (2 * depth_of r.r_id) ' ' in
            let label =
              let l = indent ^ r.r_name in
              if String.length l > 30 then String.sub l 0 30
              else l ^ String.make (30 - String.length l) ' '
            in
            let axis = Bytes.make width ' ' in
            let pos ns = ns * width / span_ns in
            let b0 = max 0 (min (width - 1) (pos (r.r_start - t0))) in
            let b1 =
              max (b0 + 1) (min width (pos (r.r_start - t0 + r.r_dur)))
            in
            Bytes.fill axis b0 (b1 - b0) '=';
            Printf.bprintf buf "%s |%s| %9.3fms\n" label
              (Bytes.to_string axis) (ms r.r_dur))
          group)
      traces;
    (* Aggregate wall per span name, via the PR 3 bar-chart renderer. *)
    let totals = Hashtbl.create 16 in
    List.iter
      (fun r ->
        let prev =
          Option.value ~default:0.0 (Hashtbl.find_opt totals r.r_name)
        in
        Hashtbl.replace totals r.r_name (prev +. ms r.r_dur))
      spans;
    let entries =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    Buffer.add_string buf "total ms by span name:\n";
    Buffer.add_string buf (Ascii.bar_chart entries);
    Buffer.contents buf
  end
