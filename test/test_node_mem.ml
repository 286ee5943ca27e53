(* Retained words per revealed node of a full lazy exploration: everything
   the world, the view, the environment and the algorithm hold, reached
   from the environment and the algorithm. Every per-node table is a
   column of one paged node store (int32 entries, byte flags), so a node
   costs about 8 words; the per-module int arrays it replaced cost 21. *)

module Env = Bfdn_sim.Env
module Node_store = Bfdn_sim.Node_store
module Partial_tree = Bfdn_sim.Partial_tree
module Lazy_world = Bfdn_sim.Lazy_world

let words_limit = 12.0

(* Growth leaves at most one page of slack past the promised ids, at
   every round of the run. *)
let check_slack env =
  let store = Partial_tree.store (Env.view env) in
  let promised = Env.oracle_n env in
  if store.Node_store.bound - promised > Node_store.page_size then
    Alcotest.failf "round %d: store backs %d ids for %d promised"
      (Env.round env) (store.Node_store.bound) promised

let test_words_per_revealed_node () =
  let lw = Lazy_world.make ~family:"binary" ~n:100_000 ~depth_hint:20 ~seed:7 in
  let env = Env.of_world (Lazy_world.world lw) ~k:256 in
  let bfdn = Bfdn.Bfdn_algo.make env in
  let r =
    Bfdn_sim.Runner.run ~on_round:check_slack (Bfdn.Bfdn_algo.algo bfdn) env
  in
  Alcotest.(check bool) "explored" true r.Bfdn_sim.Runner.explored;
  let revealed = Partial_tree.num_explored (Env.view env) in
  Alcotest.(check int) "revealed all" (Lazy_world.capacity lw) revealed;
  let per_node =
    float_of_int (Obj.reachable_words (Obj.repr (env, bfdn)))
    /. float_of_int revealed
  in
  if per_node > words_limit then
    Alcotest.failf "%.2f words per revealed node (limit %.0f)" per_node
      words_limit;
  (* The n = 10^5 world spans two pages; the slack bound needs a prefix
     of a 16-page one too, where over-eager growth would show. *)
  let big = Lazy_world.make ~family:"binary" ~n:1_000_000 ~depth_hint:20 ~seed:7 in
  let env = Env.of_world (Lazy_world.world big) ~k:256 in
  let r =
    Bfdn_sim.Runner.run ~max_rounds:2000 ~on_round:check_slack
      (Bfdn.Bfdn_algo.(algo (make env))) env
  in
  Alcotest.(check bool) "prefix only" false r.Bfdn_sim.Runner.explored;
  if Env.oracle_n env < 3 * Node_store.page_size then
    Alcotest.failf "the prefix promised only %d ids" (Env.oracle_n env)

(* An adaptive world keeps its promise table in the same paged store, so
   a short path revealed out of a 10^7-node budget holds a few pages, not
   capacity-sized arrays. *)
let test_adversary_holds_pages () =
  let adv =
    Bfdn_sim.Adversary.make ~capacity:10_000_000 ~depth_budget:10
      Bfdn_sim.Adversary.miser
  in
  let env = Env.of_world (Lazy_world.world adv) ~k:8 in
  let bfdn = Bfdn.Bfdn_algo.make env in
  let r = Bfdn_sim.Runner.run (Bfdn.Bfdn_algo.algo bfdn) env in
  Alcotest.(check bool) "explored" true r.Bfdn_sim.Runner.explored;
  Alcotest.(check int) "a path of 11 nodes" 11
    (Partial_tree.num_explored (Env.view env));
  let words = Obj.reachable_words (Obj.repr (env, bfdn)) in
  (* Every column backs its first page only: one int32 page is
     page_size / 2 words on a 64-bit host; one more page covers the port
     pool and everything that is not per node. *)
  let columns = List.length (Partial_tree.store (Env.view env)).Node_store.cols in
  let limit = (columns + 1) * (Node_store.page_size / 2) in
  if words > limit then
    Alcotest.failf "%d words reachable (limit %d: %d pages)" words limit
      (columns + 1)

(* ---- the E16, E19 and E20 numbers quoted in the docs are the committed
   ones ---- *)

module Json = Bfdn_obs.Json

(* A repository file: one level up under [dune runtest] (the test runs in
   _build/default/test, where its deps are copied), else from the
   repository root, as [dune exec test/test_main.exe] runs it. *)
let read name =
  let path = if Sys.file_exists ("../" ^ name) then "../" ^ name else name in
  In_channel.with_open_bin path In_channel.input_all

(* Every match of [re]'s first group in [text], whitespace runs (line
   breaks included) folded to one space first. *)
let quotes re text =
  let text = Str.global_replace (Str.regexp "[ \t\n]+") " " text in
  let rec go pos acc =
    match Str.search_forward re text pos with
    | exception Not_found -> List.rev acc
    | _ -> go (Str.match_end ()) (Str.matched_group 1 text :: acc)
  in
  go 0 []

let mb_re = Str.regexp "~\\([0-9]+\\.[0-9]\\) MB"
let ceiling_re = Str.regexp "\\([0-9]+\\) MB peak-RSS ceiling"

(* An experiment's section of EXPERIMENTS.md (e.g. "E19"): from its
   heading to the next. *)
let section name doc =
  let heading = Str.regexp_string ("## " ^ name ^ " ") in
  let start = Str.search_forward heading doc 0 in
  let stop =
    try Str.search_forward (Str.regexp "^## ") doc (start + 1)
    with Not_found -> String.length doc
  in
  String.sub doc start (stop - start)

let test_e19_quotes_match_bench () =
  let bench =
    match Json.of_string (read "BENCH_huge.json") with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCH_huge.json: %s" e
  in
  let member path =
    List.fold_left
      (fun j key ->
        match Json.member key j with
        | Some v -> v
        | None -> Alcotest.failf "BENCH_huge.json: no %s" key)
      bench path
  in
  let num path =
    match member path with
    | Json.Int i -> float_of_int i
    | Json.Float f -> f
    | _ -> Alcotest.failf "BENCH_huge.json: %s is not a number" (List.hd path)
  in
  let mb bytes = Printf.sprintf "%.1f" (bytes /. 1048576.) in
  let rss row = mb (num (row @ [ "peak_rss_bytes" ])) in
  let lazy_mb = rss [ "rss_comparison"; "lazy" ]
  and eager_mb = rss [ "rss_comparison"; "eager" ]
  and reach_mb = rss [ "reach" ]
  and gate_mb = rss [ "gate" ] in
  let full_mb =
    match member [ "throughput" ] with
    | Json.List rows ->
        List.map
          (fun r ->
            match Json.member "peak_rss_bytes" r with
            | Some (Json.Int b) -> mb (float_of_int b)
            | _ -> Alcotest.fail "throughput row without peak_rss_bytes")
          rows
    | _ -> Alcotest.fail "BENCH_huge.json: throughput is not a list"
  in
  let committed = lazy_mb :: eager_mb :: reach_mb :: gate_mb :: full_mb in
  let ceiling =
    string_of_int (int_of_float (num [ "smoke_rss_ceiling_bytes" ]) / 1048576)
  in
  let ratio =
    Printf.sprintf "%.0f" (100. *. num [ "rss_comparison"; "lazy_over_eager" ])
  in
  let e19 = section "E19" (read "EXPERIMENTS.md") in
  let readme = read "README.md" in
  let quoted = quotes mb_re e19 in
  List.iter
    (fun q ->
      if not (List.mem q committed) then
        Alcotest.failf "EXPERIMENTS.md E19 quotes ~%s MB, not in BENCH_huge.json" q)
    quoted;
  List.iter
    (fun (what, v) ->
      if not (List.mem v quoted) then
        Alcotest.failf "EXPERIMENTS.md E19 does not quote the %s peak (~%s MB)"
          what v)
    [ ("bounded lazy", lazy_mb); ("bounded eager", eager_mb);
      ("reach", reach_mb); ("gate", gate_mb) ];
  let check_all what re text want =
    match quotes re text with
    | [] -> Alcotest.failf "%s quotes no %s" what want
    | qs ->
        List.iter
          (fun q ->
            if q <> want then
              Alcotest.failf "%s quotes %s, BENCH_huge.json has %s" what q want)
          qs
  in
  check_all "EXPERIMENTS.md E19 ceiling" ceiling_re e19 ceiling;
  check_all "README.md ceiling" ceiling_re readme ceiling;
  check_all "EXPERIMENTS.md E19 ratio" (Str.regexp "≈ \\([0-9]+\\)%") e19 ratio;
  check_all "README.md ratio" (Str.regexp ("~\\([0-9]+\\)% at n = " ^ Str.quote "10^6")) readme
    ratio

(* The E16 probe-overhead and E20 tracing-overhead maxima, quoted as
   percentages at the precision the text gives them. *)
let test_hotpath_quotes_match_bench () =
  let bench =
    match Json.of_string (read "BENCH_hotpath.json") with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCH_hotpath.json: %s" e
  in
  let doc = read "EXPERIMENTS.md" in
  let check experiment what pattern key =
    let committed =
      match Json.member key bench with
      | Some (Json.Float f) -> f
      | Some (Json.Int i) -> float_of_int i
      | _ -> Alcotest.failf "BENCH_hotpath.json: no number %s" key
    in
    let re = Str.regexp (pattern ^ "\\+\\([0-9]+\\.[0-9]+\\)%") in
    match quotes re (section experiment doc) with
    | [] -> Alcotest.failf "EXPERIMENTS.md %s quotes no %s" experiment what
    | qs ->
        List.iter
          (fun q ->
            let decimals = String.length q - String.index q '.' - 1 in
            let want = Printf.sprintf "%.*f" decimals committed in
            if q <> want then
              Alcotest.failf "EXPERIMENTS.md %s quotes %s +%s%%, %s has %s"
                experiment what q key want)
          qs
  in
  check "E16" "probe overhead" "max " "max_probe_overhead_pct";
  check "E20" "disabled tracing" "disabled tracing \\*\\*"
    "max_tracing_disabled_pct";
  check "E20" "enabled tracing" "enabled tracing \\*\\*"
    "max_tracing_enabled_pct"

let suite =
  ( "node-mem",
    [
      Alcotest.test_case "words per revealed node, lazy binary" `Quick
        test_words_per_revealed_node;
      Alcotest.test_case "E19 quotes match BENCH_huge.json" `Quick
        test_e19_quotes_match_bench;
      Alcotest.test_case "adversary holds pages, not its capacity" `Quick
        test_adversary_holds_pages;
      Alcotest.test_case "E16 and E20 quotes match BENCH_hotpath.json" `Quick
        test_hotpath_quotes_match_bench;
    ] )
