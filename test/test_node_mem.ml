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
  (* "the other rows": the S=64 speedups of the collapsing cells not
     quoted above; the range ends are their least and greatest *)
  let others =
    List.filter_map
      (fun r ->
        let is field v = Json.member field r = Some v in
        let quoted (family, k) =
          is "family" (Json.String family) && is "k" (Json.Int k)
        in
        if
          is "batch" (Json.Int 64)
          && is "collapsed" (Json.Bool true)
          && not (quoted ("binary", 64) || quoted ("comb", 512))
        then Some (num r "speedup_vs_s1")
        else None)
      (rows batch)
  in
  check "E22"
    ("the other rows land at " ^ int ^ "–" ^ int ^ "×")
    [
      ("least other S=64 speedup", List.fold_left Float.min infinity others);
      ("greatest other S=64 speedup", List.fold_left Float.max 0. others);
    ];
  check "E22"
    ("at " ^ dec ^ "× the seeds/sec of S=1 (" ^ int ^ " → " ^ int ^ ")")
    [
      ("random S=8 speedup", speedup "random" 64 8);
      ("random S=1 seeds/sec", sps "random" 64 1);
      ("random S=8 seeds/sec", sps "random" 64 8);
    ]

(* ---- the per-domain page pool ---- *)

module Scenario = Bfdn_scenario.Scenario

let pages (c : Node_store.col) = Array.to_list (c :> Bytes.t array)

(* A store of [capacity] ids with two int32 columns of each fill, a flag
   column and a port-pool-like vector, and every page it holds (the empty
   slots of its directories aside). *)
let pooled_store capacity =
  let s = Node_store.create ~capacity in
  let zero = Node_store.column s ~fill:0 in
  let minus = Node_store.column s ~fill:(-1) in
  let fl = Node_store.flags s in
  let v = Node_store.vector s ~hint:(2 * capacity) in
  Node_store.reserve v (2 * capacity);
  let held =
    List.concat_map pages [ s.Node_store.parent; s.Node_store.depth; zero; minus; fl ]
    @ Array.to_list v.Node_store.pages
  in
  (s, zero, minus, fl, v, List.filter (fun p -> Bytes.length p > 0) held)

let stats_delta f =
  let before = Node_store.page_stats () in
  let x = f () in
  let after = Node_store.page_stats () in
  ( x,
    after.Node_store.reused - before.Node_store.reused,
    after.Node_store.allocated - before.Node_store.allocated )

(* A page handed back after its owner wrote every byte is refilled for
   its next owner: a column of the other fill, a flag column or a vector
   reads exactly like a fresh one. *)
let test_pool_reused_page_reads_fill () =
  let capacity = 1000 in
  let s1, _, _, _, _, held1 = pooled_store capacity in
  List.iter (fun p -> Bytes.fill p 0 (Bytes.length p) '\x5a') held1;
  Node_store.release s1;
  let (s2, zero, minus, fl, v, held2), reused, allocated =
    stats_delta (fun () -> pooled_store capacity)
  in
  Alcotest.(check int) "every page reused" (List.length held1) reused;
  Alcotest.(check int) "no page allocated" 0 allocated;
  Alcotest.(check bool) "the pages are the released ones" true
    (List.for_all (fun p -> List.exists (( == ) p) held1) held2);
  for i = 0 to capacity - 1 do
    let expect name c want =
      let got = Node_store.get c i in
      if got <> want then Alcotest.failf "%s.(%d) = %d, not %d" name i got want
    in
    expect "parent" s2.Node_store.parent (-1);
    expect "depth" s2.Node_store.depth (-1);
    expect "zero" zero 0;
    expect "minus" minus (-1);
    if Bytes.get (fl :> Bytes.t array).(0) i <> '\000' then
      Alcotest.failf "flag %d set" i
  done;
  for i = 0 to v.Node_store.backed - 1 do
    if Node_store.get32u v.Node_store.pages.(i lsr 16) ((i land 0xffff) lsl 2) <> 0l
    then Alcotest.failf "vector entry %d not zero" i
  done;
  Node_store.release s2

(* Releasing a store replaces what the pool held: after two releases of
   the same shape only the second store's pages come back, and after a
   release of another shape (no page length in common) none of the
   first. *)
let test_pool_holds_one_store () =
  let size = 700 in
  let s1, _, _, _, _, held = pooled_store size in
  let s2, _, _, _, _, _ = pooled_store size in
  Node_store.release s1;
  Node_store.release s2;
  let (s3, _, _, _, _, _), reused3, _ = stats_delta (fun () -> pooled_store size) in
  let (s4, _, _, _, _, _), reused4, allocated4 =
    stats_delta (fun () -> pooled_store size)
  in
  let pages = List.length held in
  Alcotest.(check int) "the first store takes the pool" pages reused3;
  Alcotest.(check (pair int int)) "the second allocates" (0, pages)
    (reused4, allocated4);
  Node_store.release s3;
  Node_store.release s4;
  let s5, _, _, _, _, _ = pooled_store (3 * size) in
  Node_store.release s5;
  let (s6, _, _, _, _, _), reused6, _ = stats_delta (fun () -> pooled_store size) in
  Alcotest.(check int) "another shape's release emptied the pool" 0 reused6;
  Node_store.release s6

(* Two systhreads of one domain create, fill, check and release stores
   of overlapping shapes, yielding in between: no page is ever live in
   two stores, and every fresh column reads its fill. *)
let test_pool_two_systhreads () =
  let failure = Atomic.make None in
  let worker tag () =
    try
      for i = 1 to 200 do
        let capacity = 100 + (i mod 3 * 50) in
        let s = Node_store.create ~capacity in
        let c = Node_store.column s ~fill:(if tag = 1 then 0 else -1) in
        let fill = if tag = 1 then 0 else -1 in
        for v = 0 to capacity - 1 do
          if Node_store.get c v <> fill then failwith "fresh column not filled";
          Node_store.set c v (tag * 1_000_000 + v)
        done;
        Thread.yield ();
        for v = 0 to capacity - 1 do
          if Node_store.get c v <> tag * 1_000_000 + v then
            failwith "a page was shared with another live store"
        done;
        Node_store.release s;
        if i mod 7 = 0 then Thread.yield ()
      done
    with e -> Atomic.set failure (Some (Printexc.to_string e))
  in
  let threads = List.map (fun tag -> Thread.create (worker tag) ()) [ 1; 2 ] in
  List.iter Thread.join threads;
  match Atomic.get failure with
  | None -> ()
  | Some msg -> Alcotest.fail msg

let pool_spec =
  Scenario.make ~algo:"bfdn" ~k:4 ~seed:11
    (Scenario.generated ~family:"random" ~n:400 ~depth_hint:8)

let frames spec =
  let acc = ref [] in
  let o =
    Scenario.run ~on_round:(fun x -> acc := x.Exec_env.frame () :: !acc) spec
  in
  (o, List.rev !acc)

(* A run aborted from its hook (as a deadline or cancel check does) hands
   its pages back like a finished one; the next run of the spec is the
   same execution, round for round. Its retained view raises. *)
let test_pool_raising_run () =
  let o1, f1 = frames pool_spec in
  let stale = ref None in
  (match
     Scenario.run
       ~on_round:(fun x ->
         stale := Some x;
         if x.Exec_env.round () = 5 then raise Exit)
       pool_spec
   with
  | _ -> Alcotest.fail "the hook did not abort the run"
  | exception Exit -> ());
  let o2, f2 = frames pool_spec in
  Alcotest.(check bool) "same outcome" true (Scenario.equal_outcome o1 o2);
  Alcotest.(check bool) "same frames" true (f1 = f2);
  match !stale with
  | None -> Alcotest.fail "no round ran"
  | Some x ->
      let raises name f =
        match f () with
        | () -> Alcotest.failf "%s on a released run did not raise" name
        | exception Invalid_argument _ -> ()
      in
      raises "select" x.Exec_env.select;
      raises "apply" x.Exec_env.apply;
      raises "frame" (fun () -> ignore (x.Exec_env.frame ()));
      raises "render" (fun () -> ignore (x.Exec_env.render ()))

(* A released environment refuses to step, its store refuses to grow and
   its view refuses checked reads; over a lazy world's store, release
   leaves the environment live. *)
let test_pool_released_env_raises () =
  let tree = Bfdn_trees.Tree_gen.comb ~spine:20 ~tooth_len:9 in
  let env = Env.create tree ~k:3 in
  let view = Env.view env in
  let root = Partial_tree.root view in
  Env.release env;
  Alcotest.(check bool) "released" true (Env.released env);
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s did not raise" name
    | exception Invalid_argument _ -> ()
  in
  raises "Env.apply" (fun () -> Env.apply env (Array.make 3 Env.Stay));
  raises "Node_store.ensure" (fun () ->
      Node_store.ensure (Partial_tree.store view) 150);
  raises "Node_store.column" (fun () ->
      ignore (Node_store.column (Partial_tree.store view) ~fill:0));
  raises "Partial_tree.num_ports" (fun () ->
      ignore (Partial_tree.num_ports view root));
  Env.release env;
  let lw = Lazy_world.make ~family:"binary" ~n:300 ~depth_hint:8 ~seed:3 in
  let lazy_env = Env.of_world (Lazy_world.world lw) ~k:3 in
  Env.release lazy_env;
  Alcotest.(check bool) "a lazy world's env stays live" false
    (Env.released lazy_env);
  let r =
    Exec_env.run (Exec_env.of_env Bfdn.Bfdn_algo.(algo (make lazy_env)) lazy_env)
  in
  Alcotest.(check bool) "and explores" true r.Exec_env.explored

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
      Alcotest.test_case "pool: a reused page reads its fill" `Quick
        test_pool_reused_page_reads_fill;
      Alcotest.test_case "pool: holds one store's pages" `Quick
        test_pool_holds_one_store;
      Alcotest.test_case "pool: two systhreads share a domain" `Quick
        test_pool_two_systhreads;
      Alcotest.test_case "pool: a raising run leaves the next identical"
        `Quick test_pool_raising_run;
      Alcotest.test_case "pool: a released environment raises" `Quick
        test_pool_released_env_raises;
    ] )
