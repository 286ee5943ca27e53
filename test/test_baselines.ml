(* Tests for the baseline algorithms: single-robot DFS, offline splitting,
   CTE, and the random walk. *)

module Tree = Bfdn_trees.Tree
module Tree_gen = Bfdn_trees.Tree_gen
module Tree_stats = Bfdn_trees.Tree_stats
module Env = Bfdn_sim.Env
module Exec_env = Bfdn_sim.Exec_env
module Dfs_single = Bfdn_baselines.Dfs_single
module Offline_split = Bfdn_baselines.Offline_split
module Cte = Bfdn_baselines.Cte
module Random_walk = Bfdn_baselines.Random_walk
module Rng = Bfdn_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let random_tree seed n =
  let r = Rng.create seed in
  Tree.of_parents (Array.init n (fun v -> if v = 0 then -1 else Rng.int r v))

let run make tree k =
  let env = Env.create tree ~k in
  let r = Exec_env.run (Exec_env.of_env (make env) env) in
  (env, r)

(* ---- single-robot DFS ---- *)

let test_dfs_exact_rounds () =
  List.iter
    (fun seed ->
      let tree = random_tree seed 150 in
      let _, r = run Dfs_single.make tree 1 in
      checkb "explored" true r.explored;
      checkb "at root" true r.at_root;
      checki "2(n-1)" (2 * (Tree.n tree - 1)) r.rounds)
    [ 4; 5; 6 ]

let test_dfs_extra_robots_idle () =
  let tree = Tree_gen.comb ~spine:5 ~tooth_len:2 in
  let env, r = run Dfs_single.make tree 4 in
  checkb "explored" true r.explored;
  checki "robot 1 idle" 0 (Env.moves_of_robot env 1)

(* ---- offline splitting ---- *)

let test_offline_families () =
  let rng = Rng.create 8 in
  List.iter
    (fun fam ->
      let tree = Tree_gen.of_family fam ~rng ~n:400 ~depth_hint:10 in
      let stats = Tree_stats.compute tree in
      List.iter
        (fun k ->
          let _, r = run Offline_split.make tree k in
          checkb (Printf.sprintf "%s k=%d explored" fam k) true r.explored;
          checkb (Printf.sprintf "%s k=%d at root" fam k) true r.at_root;
          (* the [7,13] guarantee: 2(n/k + D), plus the ceiling slack *)
          let bound = (2.0 *. (float_of_int stats.n /. float_of_int k +. float_of_int stats.depth)) +. 2.0 in
          checkb (Printf.sprintf "%s k=%d within 2(n/k+D)" fam k) true
            (float_of_int r.rounds <= bound))
        [ 1; 4; 16 ])
    Tree_gen.families

let test_offline_planned_matches_run () =
  let tree = random_tree 12 300 in
  List.iter
    (fun k ->
      let planned = Offline_split.planned_rounds tree ~k in
      let _, r = run Offline_split.make tree k in
      checki (Printf.sprintf "k=%d planned = executed" k) planned r.rounds)
    [ 1; 3; 8; 32 ]

let prop_offline_beats_bound =
  QCheck.Test.make ~name:"offline split within 2(n/k+D) + slack" ~count:60
    QCheck.(pair (int_range 2 300) (int_range 1 32))
    (fun (n, k) ->
      let tree = random_tree (n + (k * 1000)) n in
      let d = Tree.depth tree in
      let _, r = run Offline_split.make tree k in
      r.explored
      && float_of_int r.rounds
         <= (2.0 *. ((float_of_int n /. float_of_int k) +. float_of_int d)) +. 2.0)

(* The raw itineraries are well-formed walks: consecutive nodes adjacent,
   starting and ending at the root, covering each tour edge. *)
let test_offline_itinerary_structure () =
  let tree = random_tree 64 200 in
  List.iter
    (fun k ->
      let env = Env.create tree ~k in
      let r = Exec_env.run (Exec_env.of_env (Offline_split.make env) env) in
      checkb "explored" true r.explored;
      (* re-running is idempotent: fresh plan, same rounds *)
      let env2 = Env.create tree ~k in
      let r2 = Exec_env.run (Exec_env.of_env (Offline_split.make env2) env2) in
      checki "deterministic" r.rounds r2.rounds;
      checki "planned matches" (Offline_split.planned_rounds tree ~k) r.rounds)
    [ 2; 7; 40 ]

(* ---- CTE ---- *)

let test_cte_families () =
  let rng = Rng.create 13 in
  List.iter
    (fun fam ->
      let tree = Tree_gen.of_family fam ~rng ~n:350 ~depth_hint:10 in
      List.iter
        (fun k ->
          let _, r = run Cte.make tree k in
          checkb (Printf.sprintf "%s k=%d explored" fam k) true r.explored;
          checkb (Printf.sprintf "%s k=%d at root" fam k) true r.at_root;
          checkb (Printf.sprintf "%s k=%d no limit" fam k) false r.hit_round_limit)
        [ 1; 6; 24 ])
    Tree_gen.families

let test_cte_single_robot_is_dfs () =
  let tree = random_tree 31 200 in
  let _, r = run Cte.make tree 1 in
  checki "2(n-1)" (2 * (Tree.n tree - 1)) r.rounds

let prop_cte_explores =
  QCheck.Test.make ~name:"CTE always completes and regathers" ~count:60
    QCheck.(pair (int_range 2 250) (int_range 1 32))
    (fun (n, k) ->
      let tree = random_tree (n * 3 + k) n in
      let _, r = run Cte.make tree k in
      r.explored && r.at_root && not r.hit_round_limit)

let test_cte_edge_events_complete () =
  let tree = random_tree 77 250 in
  let env, r = run Cte.make tree 9 in
  checkb "explored" true r.explored;
  checki "edge events" (2 * (Tree.n tree - 1)) (Env.edge_events env)

(* ---- write-read CTE ---- *)

let test_cte_wr_families () =
  let rng = Rng.create 19 in
  List.iter
    (fun fam ->
      let tree = Tree_gen.of_family fam ~rng ~n:350 ~depth_hint:10 in
      List.iter
        (fun k ->
          let _, r = run Bfdn_baselines.Cte_writeread.make tree k in
          checkb (Printf.sprintf "%s k=%d explored" fam k) true r.explored;
          checkb (Printf.sprintf "%s k=%d at root" fam k) true r.at_root;
          checkb (Printf.sprintf "%s k=%d no limit" fam k) false r.hit_round_limit)
        [ 1; 6; 24 ])
    Tree_gen.families

let test_cte_wr_single_robot_is_dfs () =
  let tree = random_tree 47 200 in
  let _, r = run Bfdn_baselines.Cte_writeread.make tree 1 in
  checki "2(n-1)" (2 * (Tree.n tree - 1)) r.rounds

let prop_cte_wr_tracks_centralized =
  QCheck.Test.make ~name:"write-read CTE tracks complete-communication CTE" ~count:40
    QCheck.(pair (int_range 2 250) (int_range 1 24))
    (fun (n, k) ->
      let tree = random_tree ((n * 11) + k) n in
      let _, r1 = run Cte.make tree k in
      let _, r2 = run Bfdn_baselines.Cte_writeread.make tree k in
      r2.explored && r2.at_root
      && r2.rounds <= (3 * r1.rounds) + 10
      && r1.rounds <= (3 * r2.rounds) + 10)

(* ---- random walk ---- *)

let test_random_walk_completes_small () =
  let tree = Tree_gen.complete ~arity:2 ~depth:4 in
  let env = Env.create tree ~k:4 in
  let algo = Random_walk.make ~rng:(Rng.create 2) env in
  let r = Exec_env.run ~max_rounds:100_000 (Exec_env.of_env algo env) in
  checkb "explored" true r.explored

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let qc t = QCheck_alcotest.to_alcotest t in
  ( "baselines",
    [
      tc "dfs exact rounds" test_dfs_exact_rounds;
      tc "dfs extra robots idle" test_dfs_extra_robots_idle;
      tc "offline families" test_offline_families;
      tc "offline planned = run" test_offline_planned_matches_run;
      qc prop_offline_beats_bound;
      tc "offline itinerary structure" test_offline_itinerary_structure;
      tc "cte families" test_cte_families;
      tc "cte single robot is dfs" test_cte_single_robot_is_dfs;
      qc prop_cte_explores;
      tc "cte edge events" test_cte_edge_events_complete;
      tc "cte-wr families" test_cte_wr_families;
      tc "cte-wr single robot is dfs" test_cte_wr_single_robot_is_dfs;
      qc prop_cte_wr_tracks_centralized;
      tc "random walk completes" test_random_walk_completes_small;
    ] )
