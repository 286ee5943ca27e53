(* Tests for the adaptive tree-building adversary: budget respect, frozen
   trees, replay determinism, and the fact that Theorem 1 holds even on
   adaptively built instances (they freeze into ordinary trees). *)

module Tree = Bfdn_trees.Tree
module Env = Bfdn_sim.Env
module Exec_env = Bfdn_sim.Exec_env
module Adversary = Bfdn_sim.Adversary
module Lazy_world = Bfdn_sim.Lazy_world
module Rng = Bfdn_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let bfdn_algo env = Bfdn.Bfdn_algo.algo (Bfdn.Bfdn_algo.make env)

let run_adaptive make_algo adv k =
  let env = Env.of_world (Lazy_world.world adv) ~k in
  (env, Exec_env.run (Exec_env.of_env (make_algo env) env))

let test_budgets_respected () =
  let adv =
    Lazy_world.adaptive ~capacity:500 ~depth_budget:12 Adversary.greedy_widest
  in
  let _, r = run_adaptive bfdn_algo adv 8 in
  checkb "explored" true r.explored;
  let tree = Lazy_world.frozen adv in
  Tree.validate tree;
  checkb "capacity respected" true (Tree.n tree <= 500);
  checkb "depth respected" true (Tree.depth tree <= 12)

let test_miser_builds_path () =
  let adv = Lazy_world.adaptive ~capacity:100 ~depth_budget:99 Adversary.miser in
  let _, r = run_adaptive bfdn_algo adv 3 in
  checkb "explored" true r.explored;
  let tree = Lazy_world.frozen adv in
  checki "path nodes" 100 (Tree.n tree);
  checki "path depth" 99 (Tree.depth tree);
  checki "path max degree" 2 (Tree.max_degree tree)

let test_greedy_widest_builds_star () =
  let adv =
    Lazy_world.adaptive ~capacity:200 ~depth_budget:10 Adversary.greedy_widest
  in
  let _, r = run_adaptive bfdn_algo adv 5 in
  checkb "explored" true r.explored;
  let tree = Lazy_world.frozen adv in
  checki "star" 1 (Tree.depth tree);
  checki "all budget spent" 200 (Tree.n tree);
  checki "child index of the fifth leaf" 4 (Lazy_world.child_index adv 5)

let test_thick_comb_shape () =
  let adv = Adversary.make_rec ~capacity:300 ~depth_budget:60 Adversary.thick_comb in
  let _, r = run_adaptive bfdn_algo adv 6 in
  checkb "explored" true r.explored;
  let tree = Lazy_world.frozen adv in
  Tree.validate tree;
  checkb "comb-like: n ~ 2 D" true (Tree.n tree >= (2 * Tree.depth tree) - 2);
  checki "max degree 3" 3 (Tree.max_degree tree)

let replay_identical make_algo make_adv k =
  let adv = make_adv () in
  let _, r1 = run_adaptive make_algo adv k in
  let tree = Lazy_world.frozen adv in
  let env2 = Env.create tree ~k in
  let r2 = Exec_env.run (Exec_env.of_env (make_algo env2) env2) in
  r1.explored && r2.explored && r1.rounds = r2.rounds && r1.moves = r2.moves

let test_replay_determinism () =
  List.iter
    (fun k ->
      checkb "bfdn replay" true
        (replay_identical bfdn_algo
           (fun () ->
             Lazy_world.adaptive ~capacity:600 ~depth_budget:40
               (Adversary.corridor_crowds ~threshold:3))
           k);
      checkb "cte replay" true
        (replay_identical Bfdn_baselines.Cte.make
           (fun () -> Adversary.make_rec ~capacity:400 ~depth_budget:80 Adversary.thick_comb)
           k))
    [ 2; 9; 33 ]

let prop_theorem1_adaptive =
  QCheck.Test.make ~name:"Theorem 1 holds on adaptively built trees" ~count:40
    QCheck.(triple (int_range 2 300) (int_range 1 24) (int_range 0 10_000))
    (fun (capacity, k, seed) ->
      let adv =
        Lazy_world.adaptive ~capacity ~depth_budget:(max 1 (capacity / 3))
          (Adversary.random_policy (Rng.create seed) ~max_children:4)
      in
      let env, r = run_adaptive bfdn_algo adv k in
      let tree = Lazy_world.frozen adv in
      Tree.validate tree;
      let bound =
        Bfdn.Bounds.bfdn ~n:(Tree.n tree) ~k ~d:(Tree.depth tree)
          ~delta:(Tree.max_degree tree)
      in
      ignore env;
      r.explored && float_of_int r.rounds <= bound)

let prop_planner_adaptive =
  QCheck.Test.make ~name:"Proposition 6 holds on adaptively built trees" ~count:25
    QCheck.(triple (int_range 2 200) (int_range 1 16) (int_range 0 10_000))
    (fun (capacity, k, seed) ->
      let adv =
        Lazy_world.adaptive ~capacity ~depth_budget:(max 1 (capacity / 3))
          (Adversary.random_policy (Rng.create seed) ~max_children:4)
      in
      let env = Env.of_world (Lazy_world.world adv) ~k in
      let t = Bfdn.Bfdn_planner.make env in
      let r = Exec_env.run (Exec_env.of_env (Bfdn.Bfdn_planner.algo t) env) in
      let tree = Lazy_world.frozen adv in
      let bound =
        Bfdn.Bounds.bfdn_writeread ~n:(Tree.n tree) ~k ~d:(Tree.depth tree)
          ~delta:(Tree.max_degree tree)
      in
      r.explored && r.at_root && float_of_int r.rounds <= bound)

let test_accessors () =
  let adv = Lazy_world.adaptive ~capacity:50 ~depth_budget:10 Adversary.miser in
  let _, r = run_adaptive bfdn_algo adv 2 in
  checkb "explored" true r.explored;
  checki "root parent" (-1) (Lazy_world.parent_of adv 0);
  checki "depth of root" 0 (Lazy_world.depth_of_node adv 0);
  checki "first child index" 0 (Lazy_world.child_index adv 1);
  (* miser with depth budget 10: a path of 10 edges *)
  checki "nodes built" 11 (Tree.n (Lazy_world.frozen adv))

let test_world_single_use () =
  (* Revealing the same node twice means two environments share one
     adversary — rejected. *)
  let adv = Lazy_world.adaptive ~capacity:10 ~depth_budget:3 Adversary.miser in
  let _ = Env.of_world (Lazy_world.world adv) ~k:1 in
  checkb "second env rejected" true
    (try
       ignore (Env.of_world (Lazy_world.world adv) ~k:1);
       false
     with Invalid_argument _ -> true)

(* ---- adaptive outcomes, pinned ----

   Every stock policy against every adaptive algorithm through
   Scenario.run: (rounds, moves, edge_events, replay_rounds, n, depth,
   max_degree). The adversary decides the tree online, so these numbers
   pin the promise discipline itself: dense ids in promise order, the
   [min (max 0 wanted) remaining] clamp, and no policy call at the depth
   budget (the random policy would shift its later draws). *)

module Scenario = Bfdn_scenario.Scenario

let adaptive_pins =
  [
    ("thick-comb", "bfdn", (138, 820, 160, 138, 81, 40, 3));
    ("thick-comb", "bfdn-wr", (158, 940, 160, 158, 81, 40, 3));
    ("thick-comb", "bfdn-rec", (113, 221, 158, 113, 81, 40, 3));
    ("thick-comb", "cte", (130, 780, 160, 130, 81, 40, 3));
    ("thick-comb", "cte-writeread", (138, 828, 160, 138, 81, 40, 3));
    ("thick-comb", "dfs", (160, 160, 160, 160, 81, 40, 3));
    ("thick-comb", "random-walk", (1026, 6156, 159, 1026, 81, 40, 3));
    ("corridor", "bfdn", (121, 690, 598, 121, 300, 32, 3));
    ("corridor", "bfdn-wr", (128, 734, 598, 128, 300, 32, 3));
    ("corridor", "bfdn-rec", (298, 595, 594, 298, 300, 40, 3));
    ("corridor", "cte", (80, 480, 80, 80, 41, 40, 2));
    ("corridor", "cte-writeread", (80, 480, 80, 80, 41, 40, 2));
    ("corridor", "dfs", (598, 598, 598, 598, 300, 40, 3));
    ("corridor", "random-walk", (1415, 8490, 597, 1415, 300, 40, 3));
    ("bomb", "bfdn", (100, 598, 598, 100, 300, 1, 299));
    ("bomb", "bfdn-wr", (100, 600, 598, 100, 300, 1, 299));
    ("bomb", "bfdn-rec", (299, 597, 597, 299, 300, 1, 299));
    ("bomb", "cte", (100, 600, 598, 100, 300, 1, 299));
    ("bomb", "cte-writeread", (100, 600, 598, 100, 300, 1, 299));
    ("bomb", "dfs", (598, 598, 598, 598, 300, 1, 299));
    ("bomb", "random-walk", (581, 3486, 597, 581, 300, 1, 299));
    ("miser", "bfdn", (81, 480, 80, 81, 41, 40, 2));
    ("miser", "bfdn-wr", (98, 548, 80, 98, 41, 40, 2));
    ("miser", "bfdn-rec", (40, 72, 52, 40, 41, 40, 2));
    ("miser", "cte", (80, 480, 80, 80, 41, 40, 2));
    ("miser", "cte-writeread", (80, 480, 80, 80, 41, 40, 2));
    ("miser", "dfs", (80, 80, 80, 80, 41, 40, 2));
    ("miser", "random-walk", (746, 4476, 79, 746, 41, 40, 2));
    ("random", "bfdn", (146, 840, 598, 146, 300, 36, 4));
    ("random", "bfdn-wr", (149, 868, 598, 149, 300, 32, 4));
    ("random", "bfdn-rec", (300, 599, 596, 300, 300, 40, 4));
    ("random", "cte", (132, 786, 598, 132, 300, 35, 4));
    ("random", "cte-writeread", (134, 804, 598, 134, 300, 35, 4));
    ("random", "dfs", (598, 598, 598, 598, 300, 40, 4));
    ("random", "random-walk", (2109, 12654, 597, 2109, 300, 23, 4));
  ]

let test_adaptive_pins () =
  List.iter
    (fun (policy, algo, want) ->
      let o =
        Scenario.run
          (Scenario.make ~algo ~k:6 ~seed:11
             (Scenario.adversarial ~policy ~capacity:300 ~depth_budget:40))
      in
      let r = o.Scenario.result in
      let got =
        ( r.rounds, r.moves, r.edge_events,
          Option.value o.replay_rounds ~default:(-1), o.n, o.depth,
          o.max_degree )
      in
      let show (a, b, c, d, e, f, g) =
        Printf.sprintf "(%d, %d, %d, %d, %d, %d, %d)" a b c d e f g
      in
      Alcotest.(check string) (policy ^ " x " ^ algo) (show want) (show got))
    adaptive_pins;
  checki "one pin per policy x adaptive algorithm"
    (List.length Bfdn_scenario.World_registry.policy_names
    * List.length Bfdn_scenario.Algo_registry.adaptive_names)
    (List.length adaptive_pins)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let qc t = QCheck_alcotest.to_alcotest t in
  ( "adversary",
    [
      tc "budgets respected" test_budgets_respected;
      tc "miser builds a path" test_miser_builds_path;
      tc "greedy widest builds a star" test_greedy_widest_builds_star;
      tc "thick comb shape" test_thick_comb_shape;
      tc "replay determinism" test_replay_determinism;
      qc prop_theorem1_adaptive;
      qc prop_planner_adaptive;
      tc "accessors" test_accessors;
      tc "world single use" test_world_single_use;
      tc "adaptive outcomes pinned" test_adaptive_pins;
    ] )
