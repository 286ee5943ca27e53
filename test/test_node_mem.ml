(* Retained words per revealed node of a full lazy exploration: everything
   the world, the view, the environment and the algorithm hold, reached
   from the environment and the algorithm. Every per-node table is a
   column of one paged node store (int32 entries, byte flags), so a node
   costs about 8 words; the per-module int arrays it replaced cost 21. *)

module Env = Bfdn_sim.Env
module Exec_env = Bfdn_sim.Exec_env
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
    Exec_env.run
      ~on_round:(fun _ -> check_slack env)
      (Exec_env.of_env (Bfdn.Bfdn_algo.algo bfdn) env)
  in
  Alcotest.(check bool) "explored" true r.Exec_env.explored;
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
    Exec_env.run ~max_rounds:2000
      ~on_round:(fun _ -> check_slack env)
      (Exec_env.of_env Bfdn.Bfdn_algo.(algo (make env)) env)
  in
  Alcotest.(check bool) "prefix only" false r.Exec_env.explored;
  if Env.oracle_n env < 3 * Node_store.page_size then
    Alcotest.failf "the prefix promised only %d ids" (Env.oracle_n env)

(* An adaptive world keeps its promise table in the same paged store, so
   a short path revealed out of a 10^7-node budget holds a few pages, not
   capacity-sized arrays. *)
let test_adversary_holds_pages () =
  let adv =
    Lazy_world.adaptive ~capacity:10_000_000 ~depth_budget:10
      Bfdn_sim.Adversary.miser
  in
  let env = Env.of_world (Lazy_world.world adv) ~k:8 in
  let bfdn = Bfdn.Bfdn_algo.make env in
  let r = Exec_env.run (Exec_env.of_env (Bfdn.Bfdn_algo.algo bfdn) env) in
  Alcotest.(check bool) "explored" true r.Exec_env.explored;
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

(* [q] is [v] at the precision [q] is quoted at: as many decimals as it
   has, and an integer to its last nonzero digit ("8 900" is 8 892.6 to
   the hundred). Digit groups may be split by spaces. *)
let at_quoted_precision q v =
  let q = String.concat "" (String.split_on_char ' ' q) in
  match String.index_opt q '.' with
  | Some dot -> q = Printf.sprintf "%.*f" (String.length q - dot - 1) v
  | None ->
      let n = int_of_string q in
      let unit = ref 1 in
      while n <> 0 && n / !unit mod 10 = 0 do
        unit := !unit * 10
      done;
      n = !unit * int_of_float (Float.round (v /. float_of_int !unit))

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
            if not (at_quoted_precision q committed) then
              Alcotest.failf "EXPERIMENTS.md %s quotes %s +%s%%, %s has %g"
                experiment what q key committed)
          qs
  in
  check "E16" "probe overhead" "max " "max_probe_overhead_pct";
  check "E20" "disabled tracing" "disabled tracing \\*\\*"
    "max_tracing_disabled_pct";
  check "E20" "enabled tracing" "enabled tracing \\*\\*"
    "max_tracing_enabled_pct"

(* The E17, E18, E21 and E22 numbers quoted in EXPERIMENTS.md, each
   against its committed report. A quote is one sentence of the
   experiment's section; its regexp groups are the numbers, in order. *)
let test_report_quotes_match_bench () =
  let doc = read "EXPERIMENTS.md" in
  let report name =
    match Json.of_string (read name) with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  let num j key =
    match Json.member key j with
    | Some (Json.Int i) -> float_of_int i
    | Some (Json.Float f) -> f
    | _ -> Alcotest.failf "no number %s in a report" key
  in
  let rows j =
    match Json.member "configs" j with
    | Some (Json.List rows) -> rows
    | _ -> Alcotest.fail "a report without configs"
  in
  (* The one row whose members equal [fields]. *)
  let row j fields =
    match
      List.filter
        (fun r -> List.for_all (fun (k, v) -> Json.member k r = Some v) fields)
        (rows j)
    with
    | [ r ] -> r
    | rs -> Alcotest.failf "%d report rows match, expected 1" (List.length rs)
  in
  let check experiment pattern values =
    let text =
      Str.global_replace (Str.regexp "[ \t\n]+") " " (section experiment doc)
    in
    match Str.search_forward (Str.regexp pattern) text 0 with
    | exception Not_found ->
        Alcotest.failf "EXPERIMENTS.md %s: no sentence matches %S" experiment
          pattern
    | _ ->
        let quoted =
          List.mapi (fun i _ -> Str.matched_group (i + 1) text) values
        in
        List.iter2
          (fun q (what, v) ->
            if not (at_quoted_precision q v) then
              Alcotest.failf "EXPERIMENTS.md %s quotes %s %s, the report has %g"
                experiment what q v)
          quoted values
  in
  let int = "\\([0-9][0-9 ]*[0-9]\\|[0-9]\\)"
  and dec = "\\([0-9]+\\.[0-9]+\\)" in
  let faults = report "BENCH_faults.json" in
  let comb8 rate restart =
    num
      (row faults
         [
           ("family", Json.String "comb"); ("k", Json.Int 8);
           ("fault_tolerant", Json.Bool true); ("rate", Json.Float rate);
           ("restart", Json.Int restart);
         ])
      "rounds"
  in
  check "E17"
    ("comb k=8: " ^ int ^ " rounds fault-free, " ^ int ^ " / " ^ int
   ^ " under 0\\.1 / 0\\.3 permanent crash rates, " ^ int
   ^ " when crashes restart")
    [
      ("fault-free rounds", comb8 0.0 (-1));
      ("rounds at rate 0.1", comb8 0.1 (-1));
      ("rounds at rate 0.3", comb8 0.3 (-1));
      ("rounds with restarts", comb8 0.3 20);
    ];
  let serve = report "BENCH_serve.json" in
  check "E18"
    ("≈ " ^ int ^ " req/s sustained with p50 ≈ " ^ dec ^ " ms and p99 ≈ " ^ dec
   ^ " ms; speedup ≈ " ^ dec ^ "x")
    [
      ("cached req/s", num serve "cached_req_per_sec");
      ("cached p50 ms", 1000. *. num serve "cached_p50_seconds");
      ("cached p99 ms", 1000. *. num serve "cached_p99_seconds");
      ("cold-vs-cached speedup", num serve "speedup_cold_vs_cached");
    ];
  let graph = report "BENCH_graph.json" in
  let worst_ratio keep =
    List.fold_left
      (fun acc r ->
        if keep r then Float.max acc (num r "rounds" /. num r "bound") else acc)
      0. (rows graph)
  in
  check "E21"
    ("worst ratio " ^ dec ^ " .*, grids at " ^ dec ^ " and below")
    [
      ("worst ratio", worst_ratio (fun _ -> true));
      ( "worst grid ratio",
        worst_ratio (fun r ->
            Json.member "world" r = Some (Json.String "grid")) );
    ];
  let batch = report "BENCH_batch.json" in
  let cell family k seeds =
    row batch
      [
        ("family", Json.String family); ("k", Json.Int k);
        ("batch", Json.Int seeds);
      ]
  in
  let sps family k seeds = num (cell family k seeds) "seeds_per_sec"
  and speedup family k seeds = num (cell family k seeds) "speedup_vs_s1" in
  check "E22"
    ("binary k=64 goes " ^ int ^ " → " ^ int
   ^ " seeds/sec from S=1 to S=64 (" ^ dec ^ "×), comb k=512 goes " ^ dec
   ^ " → " ^ int ^ " (" ^ dec ^ "×)")
    [
      ("binary k=64 S=1 seeds/sec", sps "binary" 64 1);
      ("binary k=64 S=64 seeds/sec", sps "binary" 64 64);
      ("binary k=64 S=64 speedup", speedup "binary" 64 64);
      ("comb k=512 S=1 seeds/sec", sps "comb" 512 1);
      ("comb k=512 S=64 seeds/sec", sps "comb" 512 64);
      ("comb k=512 S=64 speedup", speedup "comb" 512 64);
    ];
  check "E22"
    ("at " ^ dec ^ "× the seeds/sec of S=1 (" ^ int ^ " → " ^ int ^ ")")
    [
      ("random S=8 speedup", speedup "random" 64 8);
      ("random S=1 seeds/sec", sps "random" 64 1);
      ("random S=8 seeds/sec", sps "random" 64 8);
    ]

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
      Alcotest.test_case "E17, E18, E21 and E22 quotes match their reports"
        `Quick test_report_quotes_match_bench;
    ] )
