let content_type = "text/plain; version=0.0.4"

let name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let name_char c = name_start c || (c >= '0' && c <= '9')

let label_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let label_char c = label_start c || (c >= '0' && c <= '9')

let metric_name_ok name =
  String.length name > 0
  && name_start name.[0]
  && String.for_all name_char name

(* ---- rendering ---- *)

let float_str v =
  if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else Json.float_to_string v

let quantiles = [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]

let render reg =
  let buf = Buffer.create 1024 in
  let typ name kind = Printf.bprintf buf "# TYPE %s %s\n" name kind in
  let gauge_sample name v =
    typ name "gauge";
    Printf.bprintf buf "%s %s\n" name (float_str v)
  in
  List.iter
    (fun name ->
      let fn = "bfdn_" ^ name in
      match Metrics.find_counter reg name with
      | Some c ->
          typ fn "counter";
          Printf.bprintf buf "%s %d\n" fn (Metrics.value c)
      | None -> (
          match Metrics.find_gauge reg name with
          | Some g -> gauge_sample fn (Metrics.gauge_value g)
          | None -> (
              match Metrics.find_histogram reg name with
              | Some h ->
                  typ fn "histogram";
                  let cum = ref 0 in
                  for i = 0 to Metrics.num_buckets h - 1 do
                    cum := !cum + Metrics.bucket_count h i;
                    Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" fn
                      (float_str (Metrics.bucket_le h i))
                      !cum
                  done;
                  Printf.bprintf buf "%s_sum %s\n" fn
                    (float_str (Metrics.hist_sum h));
                  Printf.bprintf buf "%s_count %d\n" fn (Metrics.hist_count h);
                  (* Quantile estimates as sibling gauges: exposition
                     histograms carry no quantiles of their own, and a
                     recording rule is overkill for a self-contained
                     service. *)
                  List.iter
                    (fun (suffix, q) ->
                      gauge_sample
                        (Printf.sprintf "%s_%s" fn suffix)
                        (Metrics.quantile h q))
                    quantiles
              | None -> ())))
    (Metrics.names reg);
  Buffer.contents buf

(* ---- validation ---- *)

exception Bad of string

let sample_types = [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ]

(* One parsed sample line: name, labels in order, value. *)
let parse_sample line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let take_while p =
    let start = !pos in
    while !pos < n && p line.[!pos] do
      incr pos
    done;
    String.sub line start (!pos - start)
  in
  let name = take_while name_char in
  if name = "" || not (name_start name.[0]) then
    raise (Bad "sample does not start with a valid metric name");
  let labels = ref [] in
  (if peek () = Some '{' then begin
     incr pos;
     let expect c what =
       if peek () <> Some c then raise (Bad ("expected " ^ what));
       incr pos
     in
     let rec pairs () =
       if peek () = Some '}' then incr pos
       else begin
         let lname = take_while label_char in
         if lname = "" || not (label_start lname.[0]) then
           raise (Bad "invalid label name");
         expect '=' "'=' after label name";
         expect '"' "opening '\"' of label value";
         let b = Buffer.create 16 in
         let rec str () =
           match peek () with
           | None -> raise (Bad "unterminated label value")
           | Some '"' -> incr pos
           | Some '\\' ->
               incr pos;
               (match peek () with
               | Some '\\' -> Buffer.add_char b '\\'
               | Some '"' -> Buffer.add_char b '"'
               | Some 'n' -> Buffer.add_char b '\n'
               | _ -> raise (Bad "invalid escape in label value"));
               incr pos;
               str ()
           | Some c ->
               Buffer.add_char b c;
               incr pos;
               str ()
         in
         str ();
         labels := (lname, Buffer.contents b) :: !labels;
         match peek () with
         | Some ',' ->
             incr pos;
             pairs ()
         | Some '}' -> incr pos
         | _ -> raise (Bad "expected ',' or '}' in label set")
       end
     in
     pairs ()
   end);
  let _ = take_while (fun c -> c = ' ' || c = '\t') in
  let value_tok = take_while (fun c -> c <> ' ' && c <> '\t') in
  if value_tok = "" then raise (Bad "sample has no value");
  let value =
    match String.lowercase_ascii value_tok with
    | "+inf" | "inf" -> infinity
    | "-inf" -> neg_infinity
    | "nan" -> nan
    | _ -> (
        match float_of_string_opt value_tok with
        | Some v -> v
        | None -> raise (Bad (Printf.sprintf "invalid sample value %S" value_tok)))
  in
  let _ = take_while (fun c -> c = ' ' || c = '\t') in
  let ts = take_while (fun c -> c <> ' ' && c <> '\t') in
  if ts <> "" && int_of_string_opt ts = None then
    raise (Bad (Printf.sprintf "invalid timestamp %S" ts));
  let _ = take_while (fun c -> c = ' ' || c = '\t') in
  if !pos <> n then raise (Bad "trailing garbage after sample");
  (name, List.rev !labels, value)

let strip_suffix name suffix =
  let nl = String.length name and sl = String.length suffix in
  if nl > sl && String.sub name (nl - sl) sl = suffix then
    Some (String.sub name 0 (nl - sl))
  else None

let validate body =
  let types : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let closed : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let sampled : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  (* Histogram evidence, collected in order of appearance. *)
  let buckets : (string, (float * float) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let counts : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let current = ref None in
  (* The family a sample belongs to: histogram/summary series fold into
     their base name once its TYPE is declared. *)
  let family_of name =
    let base =
      List.find_map
        (fun suffix -> strip_suffix name suffix)
        [ "_bucket"; "_sum"; "_count" ]
    in
    match base with
    | Some b
      when (match Hashtbl.find_opt types b with
           | Some ("histogram" | "summary") -> true
           | _ -> false) ->
        b
    | _ -> name
  in
  let enter_family fam =
    (match !current with
    | Some f when f <> fam -> Hashtbl.replace closed f ()
    | _ -> ());
    if Hashtbl.mem closed fam then
      raise (Bad (Printf.sprintf "samples of %S are interleaved with another family" fam));
    current := Some fam
  in
  let handle_comment line =
    (* "# TYPE name type" | "# HELP name text" | any other comment *)
    match String.split_on_char ' ' line with
    | "#" :: "TYPE" :: rest -> (
        match rest with
        | [ name; kind ] ->
            if not (metric_name_ok name) then
              raise (Bad (Printf.sprintf "invalid metric name %S in TYPE" name));
            if not (List.mem kind sample_types) then
              raise (Bad (Printf.sprintf "unknown metric type %S" kind));
            if Hashtbl.mem types name then
              raise (Bad (Printf.sprintf "duplicate TYPE for %S" name));
            if Hashtbl.mem sampled name then
              raise (Bad (Printf.sprintf "TYPE for %S after its samples" name));
            Hashtbl.replace types name kind
        | _ -> raise (Bad "malformed TYPE line"))
    | "#" :: "HELP" :: name :: _ ->
        if not (metric_name_ok name) then
          raise (Bad (Printf.sprintf "invalid metric name %S in HELP" name))
    | _ -> ()
  in
  let handle_sample line =
    let name, labels, value = parse_sample line in
    let fam = family_of name in
    enter_family fam;
    Hashtbl.replace sampled name ();
    Hashtbl.replace sampled fam ();
    if Hashtbl.find_opt types fam = Some "histogram" then begin
      match strip_suffix name "_bucket" with
      | Some _ -> (
          match List.assoc_opt "le" labels with
          | None -> raise (Bad (Printf.sprintf "%S lacks an le label" name))
          | Some le_raw ->
              let le =
                match String.lowercase_ascii le_raw with
                | "+inf" | "inf" -> infinity
                | _ -> (
                    match float_of_string_opt le_raw with
                    | Some v -> v
                    | None ->
                        raise
                          (Bad (Printf.sprintf "invalid le value %S" le_raw)))
              in
              let l =
                match Hashtbl.find_opt buckets fam with
                | Some l -> l
                | None ->
                    let l = ref [] in
                    Hashtbl.replace buckets fam l;
                    l
              in
              l := (le, value) :: !l)
      | None -> (
          match strip_suffix name "_count" with
          | Some _ -> Hashtbl.replace counts fam value
          | None -> ())
    end
  in
  try
    let lines = String.split_on_char '\n' body in
    List.iteri
      (fun i line ->
        try
          if line = "" then ()
          else if line.[0] = '#' then handle_comment line
          else handle_sample line
        with Bad msg -> raise (Bad (Printf.sprintf "line %d: %s" (i + 1) msg)))
      lines;
    (* Cross-line histogram checks. *)
    Hashtbl.iter
      (fun fam kind ->
        if kind = "histogram" && Hashtbl.mem sampled fam then begin
          let series =
            match Hashtbl.find_opt buckets fam with
            | Some l -> List.rev !l
            | None -> raise (Bad (Printf.sprintf "histogram %S has no _bucket samples" fam))
          in
          let rec check prev = function
            | [] -> ()
            | (le, v) :: tl ->
                (match prev with
                | Some (ple, pv) ->
                    if le <= ple then
                      raise
                        (Bad (Printf.sprintf "histogram %S: le values not increasing" fam));
                    if v < pv then
                      raise
                        (Bad
                           (Printf.sprintf "histogram %S: bucket counts not cumulative" fam))
                | None -> ());
                check (Some (le, v)) tl
          in
          check None series;
          let inf_count =
            match List.rev series with
            | (le, v) :: _ when le = infinity -> v
            | _ ->
                raise (Bad (Printf.sprintf "histogram %S lacks a +Inf bucket" fam))
          in
          match Hashtbl.find_opt counts fam with
          | Some c when c <> inf_count ->
              raise
                (Bad
                   (Printf.sprintf "histogram %S: _count (%s) <> +Inf bucket (%s)"
                      fam (float_str c) (float_str inf_count)))
          | _ -> ()
        end)
      types;
    Ok ()
  with Bad msg -> Error msg
