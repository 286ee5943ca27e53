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

(* ---- the docs tag the report numbers they quote ---- *)

(* The root dune file diffs EXPERIMENTS.md and README.md against their
   rendering from the committed reports (test/render_quotes.ml), which
   rewrites every tagged number. A quote that loses its tag leaves that
   check, so these tags must stay. *)
let required_tags =
  let readme =
    [
      "BENCH_huge.json smoke_rss_ceiling_bytes /1048576 ~1";
      "BENCH_huge.json rss_comparison/lazy_over_eager *100 ~1";
      "BENCH_serve.json speedup_cold_vs_cached .1";
      "BENCH_serve.json cold_mean_seconds *1000 .1";
      "BENCH_serve.json cached_req_per_sec ~100";
      "BENCH_serve.json cached_p50_seconds *1000 .2";
    ]
  in
  let comb8 = "BENCH_faults.json configs[family=comb,k=8,fault_tolerant=true,rate=" in
  let batch = "BENCH_batch.json configs[family=" in
  [
    ("README.md", readme);
    ( "EXPERIMENTS.md",
      readme
      @ [
          "BENCH_hotpath.json max_probe_overhead_pct .2";
          "BENCH_hotpath.json max_tracing_disabled_pct .2";
          "BENCH_hotpath.json max_tracing_enabled_pct .1";
          comb8 ^ "0,restart=-1]/rounds ~1";
          comb8 ^ "0.1,restart=-1]/rounds ~1";
          comb8 ^ "0.3,restart=-1]/rounds ~1";
          comb8 ^ "0.3,restart=20]/rounds ~1";
          "BENCH_serve.json cached_p99_seconds *1000 .1";
          "BENCH_huge.json rss_comparison/lazy/peak_rss_bytes /1048576 .1";
          "BENCH_huge.json rss_comparison/eager/peak_rss_bytes /1048576 .1";
          "BENCH_huge.json reach/peak_rss_bytes /1048576 .1";
          "BENCH_huge.json gate/peak_rss_bytes /1048576 .1";
          "BENCH_huge.json throughput[family=binary,k=1024]/peak_rss_bytes /1048576 .1";
          "max BENCH_graph.json configs/rounds /bound .2";
          (* E7's grid ratio range (its max also closes E21's grid claim) *)
          "min BENCH_graph.json configs[world=grid]/rounds /bound .2";
          "max BENCH_graph.json configs[world=grid]/rounds /bound .2";
          batch ^ "binary,k=64,batch=1]/seeds_per_sec ~1";
          batch ^ "binary,k=64,batch=64]/seeds_per_sec ~1";
          batch ^ "binary,k=64,batch=64]/speedup_vs_s1 .1";
          batch ^ "comb,k=512,batch=1]/seeds_per_sec .1";
          batch ^ "comb,k=512,batch=64]/seeds_per_sec ~1";
          batch ^ "comb,k=512,batch=64]/speedup_vs_s1 .1";
          "min BENCH_batch.json configs[batch=64,collapsed=true]/speedup_vs_s1 ~1";
          "max BENCH_batch.json configs[batch=64,collapsed=true]/speedup_vs_s1 ~1";
          batch ^ "random,k=64,batch=8]/speedup_vs_s1 .2";
          batch ^ "random,k=64,batch=1]/seeds_per_sec ~1";
          batch ^ "random,k=64,batch=8]/seeds_per_sec ~1";
        ] );
  ]

(* A repository file: one level up under [dune runtest] (the test runs in
   _build/default/test, where its deps are copied), else from the
   repository root, as [dune exec test/test_main.exe] runs it. *)
let read name =
  let path = if Sys.file_exists ("../" ^ name) then "../" ^ name else name in
  In_channel.with_open_bin path In_channel.input_all

let test_docs_carry_tags () =
  List.iter
    (fun (doc, tags) ->
      let text = read doc in
      List.iter
        (fun tag ->
          let tag = "<!--q " ^ tag ^ "-->" in
          match Str.search_forward (Str.regexp_string tag) text 0 with
          | _ -> ()
          | exception Not_found -> Alcotest.failf "%s lacks the tag %s" doc tag)
        tags)
    required_tags

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
    if Node_store.unsafe_vget v i <> 0 then
      Alcotest.failf "vector entry %d not zero" i
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

(* ---- the unchecked accessors ---- *)

(* On a store of 3 pages plus 17 ids, the unchecked accessors agree with
   the checked [get] and [set] at both sides of every page edge and at
   the last id, on int32 columns of either fill, and touch no other id;
   a flag column and a vector crossing a page edge are laid out as byte
   [i mod page_size] (an int32 entry: four bytes) of page
   [i / page_size]. *)
let test_unsafe_accessors () =
  let page = Node_store.page_size in
  let capacity = (3 * page) + 17 in
  let s = Node_store.create ~capacity in
  Node_store.ensure s (capacity - 1);
  let edges = [ 0; page - 1; page; page + 1; capacity - 1 ] in
  let values = [ -1; 0x7fff_ffff; -0x8000_0000 ] in
  (* [read] sees [v] at the edges and [fill] at every other id. *)
  let expect name read ~fill v =
    for i = 0 to capacity - 1 do
      let want = if List.mem i edges then v else fill in
      let got = read i in
      if got <> want then Alcotest.failf "%s.(%d) = %d, not %d" name i got want
    done
  in
  List.iter
    (fun fill ->
      let c = Node_store.column s ~fill in
      List.iter
        (fun v ->
          List.iter (fun i -> Node_store.unsafe_set c i v) edges;
          expect "get after unsafe_set" (Node_store.get c) ~fill v;
          List.iter (fun i -> Node_store.set c i (lnot v)) edges;
          expect "unsafe_get after set" (Node_store.unsafe_get c) ~fill (lnot v))
        values)
    [ 0; -1 ];
  let fl = Node_store.flags s in
  List.iter (fun i -> Node_store.unsafe_set_flag fl i) edges;
  for i = 0 to capacity - 1 do
    let want = List.mem i edges in
    let byte = Bytes.get (fl :> Bytes.t array).(i / page) (i mod page) in
    if Node_store.unsafe_get_flag fl i <> want || (byte <> '\000') <> want then
      Alcotest.failf "flag %d should be %b" i want
  done;
  let v = Node_store.vector s ~hint:page in
  Node_store.reserve v (page + 3);
  let span = List.init 6 (fun j -> page - 3 + j) in
  List.iteri
    (fun j i -> Node_store.unsafe_vset v i (List.nth values (j mod 3)))
    span;
  for i = 0 to v.Node_store.backed - 1 do
    let want =
      match List.find_index (( = ) i) span with
      | Some j -> List.nth values (j mod 3)
      | None -> 0
    in
    let page_entry =
      Int32.to_int
        (Bytes.get_int32_ne v.Node_store.pages.(i / page) (4 * (i mod page)))
    in
    if Node_store.unsafe_vget v i <> want || page_entry <> want then
      Alcotest.failf "vector entry %d should be %d" i want
  done;
  Node_store.release s

let suite =
  ( "node-mem",
    [
      Alcotest.test_case "words per revealed node, lazy binary" `Quick
        test_words_per_revealed_node;
      Alcotest.test_case "adversary holds pages, not its capacity" `Quick
        test_adversary_holds_pages;
      Alcotest.test_case "docs carry their report tags" `Quick
        test_docs_carry_tags;
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
      Alcotest.test_case "unchecked accessors agree with get and set" `Quick
        test_unsafe_accessors;
    ] )
