(* Tests for BFDN (Algorithm 1): correctness, Theorem 1, Lemma 2, the
   Claim 4 invariant, anchor-policy ablations and the Section 4.2
   break-down variant (Proposition 7). *)

module Tree = Bfdn_trees.Tree
module Tree_gen = Bfdn_trees.Tree_gen
module Env = Bfdn_sim.Env
module Partial_tree = Bfdn_sim.Partial_tree
module Exec_env = Bfdn_sim.Exec_env
module Bfdn_algo = Bfdn.Bfdn_algo
module Bounds = Bfdn.Bounds
module Rng = Bfdn_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let run_bfdn ?policy tree k =
  let env = Env.create tree ~k in
  let t = Bfdn_algo.make ?policy env in
  let result = Exec_env.run (Exec_env.of_env (Bfdn_algo.algo t) env) in
  (env, t, result)

let thm1_bound env k =
  Bounds.bfdn ~n:(Env.oracle_n env) ~k ~d:(Env.oracle_depth env)
    ~delta:(Env.oracle_max_degree env)

let random_tree seed n =
  let r = Rng.create seed in
  Tree.of_parents (Array.init n (fun v -> if v = 0 then -1 else Rng.int r v))

(* ---- correctness on all families ---- *)

let test_explores_all_families () =
  let rng = Rng.create 77 in
  List.iter
    (fun fam ->
      let tree = Tree_gen.of_family fam ~rng ~n:400 ~depth_hint:12 in
      List.iter
        (fun k ->
          let _, _, r = run_bfdn tree k in
          checkb (Printf.sprintf "%s k=%d explored" fam k) true r.explored;
          checkb (Printf.sprintf "%s k=%d at root" fam k) true r.at_root;
          checkb (Printf.sprintf "%s k=%d no limit" fam k) false r.hit_round_limit)
        [ 1; 3; 17 ])
    Tree_gen.families

let test_single_robot_is_dfs () =
  (* With k = 1, BFDN degenerates to DFS: exactly 2(n-1) rounds. *)
  List.iter
    (fun seed ->
      let tree = random_tree seed 200 in
      let _, _, r = run_bfdn tree 1 in
      checki "2(n-1) rounds" (2 * (Tree.n tree - 1)) r.rounds)
    [ 1; 2; 3 ]

let test_single_node () =
  let _, _, r = run_bfdn (Tree.of_parents [| -1 |]) 4 in
  checki "zero rounds" 0 r.rounds;
  checkb "explored" true r.explored

let test_more_robots_than_nodes () =
  let _, _, r = run_bfdn (Tree_gen.path 4) 100 in
  checkb "explored" true r.explored;
  checkb "at root" true r.at_root

let test_edge_events_complete () =
  let tree = random_tree 5 300 in
  let env, _, r = run_bfdn tree 8 in
  checkb "explored" true r.explored;
  checki "every edge crossed both ways" (2 * (Tree.n tree - 1)) (Env.edge_events env)

(* Claim 2: a dangling edge is traversed by a single robot the round it
   is explored — BFDN's round-local selection makes discoveries
   exclusive. (CTE has no such discipline, giving a contrast check.) *)
let test_claim2_single_discoverer () =
  let tree = Tree_gen.of_family "caterpillar" ~rng:(Rng.create 61) ~n:400 ~depth_hint:10 in
  let env, _, r = run_bfdn tree 24 in
  checkb "explored" true r.explored;
  checki "no shared discovery under BFDN" 0 (Env.multi_reveals env);
  let env2 = Env.create tree ~k:24 in
  let r2 = Exec_env.run (Exec_env.of_env (Bfdn_baselines.Cte.make env2) env2) in
  checkb "cte explored" true r2.explored;
  checkb "cte does share discoveries" true (Env.multi_reveals env2 > 0)

(* ---- Theorem 1 ---- *)

let prop_theorem1_random_trees =
  QCheck.Test.make ~name:"Theorem 1 bound on random trees" ~count:60
    QCheck.(pair (int_range 2 300) (int_range 1 40))
    (fun (n, k) ->
      let tree = random_tree (n * 131 + k) n in
      let env, _, r = run_bfdn tree k in
      r.explored && r.at_root
      && float_of_int r.rounds <= thm1_bound env k
      && Env.multi_reveals env = 0 (* Claim 2, as a standing property *))

let prop_theorem1_all_families =
  QCheck.Test.make ~name:"Theorem 1 bound on all instance families" ~count:40
    QCheck.(triple (int_range 2 400) (int_range 1 32) (int_range 1 15))
    (fun (n, k, d) ->
      List.for_all
        (fun fam ->
          let tree = Tree_gen.of_family fam ~rng:(Rng.create (n + k + d)) ~n ~depth_hint:d in
          let env, _, r = run_bfdn tree k in
          r.explored && r.at_root && float_of_int r.rounds <= thm1_bound env k)
        Tree_gen.families)

(* On Δ = 3 trees the min(log k, log Δ) term is the Δ side: the bound
   with log k replaced by log 3 must still hold. *)
let prop_theorem1_delta_side =
  QCheck.Test.make ~name:"Theorem 1's log Δ refinement on bounded-degree trees" ~count:40
    QCheck.(pair (int_range 2 300) (int_range 2 64))
    (fun (n, k) ->
      let tree =
        Tree_gen.random_bounded_degree ~rng:(Rng.create (n + (k * 999))) ~n ~delta:3
      in
      let env, _, r = run_bfdn tree k in
      let d = Env.oracle_depth env in
      let tight =
        (2.0 *. float_of_int n /. float_of_int k)
        +. (float_of_int (d * d) *. (log 3.0 +. 3.0))
      in
      r.explored && float_of_int r.rounds <= tight)

let test_bound_tight_on_star () =
  (* Star with k | (n-1): BFDN needs exactly 2(n-1)/k rounds, which is the
     offline lower bound — the 2n/k term of Theorem 1 is real. *)
  let tree = Tree_gen.star 65 in
  let _, _, r = run_bfdn tree 8 in
  checki "star rounds" 16 r.rounds

(* ---- Lemma 2: per-depth reanchor counts ---- *)

let test_lemma2_per_depth () =
  List.iter
    (fun (fam, n, d, k) ->
      let tree = Tree_gen.of_family fam ~rng:(Rng.create 3) ~n ~depth_hint:d in
      let env, t, r = run_bfdn tree k in
      checkb "explored" true r.explored;
      let delta = Env.oracle_max_degree env in
      let cap = Bounds.urn_game ~delta ~k +. float_of_int k in
      for depth = 1 to Env.oracle_depth env - 1 do
        checkb
          (Printf.sprintf "%s reanchors at depth %d within k(min log + 3)" fam depth)
          true
          (float_of_int (Bfdn_algo.reanchors_at_depth t depth) <= cap)
      done)
    [
      ("random", 500, 12, 8);
      ("comb", 400, 10, 16);
      ("caterpillar", 400, 10, 16);
      ("star", 300, 1, 12);
      ("binary", 511, 8, 32);
    ]

let test_reanchors_total_consistency () =
  let tree = random_tree 9 300 in
  let _, t, _ = run_bfdn tree 6 in
  let by_depth = ref 0 in
  for d = 0 to 300 do
    by_depth := !by_depth + Bfdn_algo.reanchors_at_depth t d
  done;
  checki "totals agree" (Bfdn_algo.reanchors_total t) !by_depth

(* ---- Claim 4: open nodes covered by anchored subtrees ---- *)

let test_claim4_invariant () =
  let tree = Tree_gen.of_family "random-deep" ~rng:(Rng.create 17) ~n:300 ~depth_hint:15 in
  let env = Env.create tree ~k:7 in
  let t = Bfdn_algo.make env in
  let ok = ref true in
  let check _ = if Env.round env mod 3 = 0 then ok := !ok && Bfdn_algo.check_claim4 t in
  let r = Exec_env.run ~on_round:check (Exec_env.of_env (Bfdn_algo.algo t) env) in
  checkb "explored" true r.explored;
  checkb "claim 4 held at all sampled rounds" true !ok

(* Cross-algorithm invariant behind Claims 4/5: after every synchronous
   round, the subtree of every open node hosts at least one robot (its
   discoverer cannot have left it). Holds for BFDN and for CTE. *)
let subtree_hosts_robot env =
  let view = Env.view env in
  let positions = Env.positions env in
  Partial_tree.fold_explored view ~init:true ~f:(fun acc v ->
      acc
      && ((not (Partial_tree.is_open view v))
         || Array.exists (fun p -> Partial_tree.is_ancestor view v p) positions))

let test_open_subtrees_hosted () =
  List.iter
    (fun (name, make_algo) ->
      let tree =
        Tree_gen.of_family "random-deep" ~rng:(Rng.create 29) ~n:250 ~depth_hint:12
      in
      let env = Env.create tree ~k:6 in
      let ok = ref true in
      let watch _ = ok := !ok && subtree_hosts_robot env in
      let r = Exec_env.run ~on_round:watch (Exec_env.of_env (make_algo env) env) in
      checkb (name ^ " explored") true r.explored;
      checkb (name ^ " open subtrees always hosted") true !ok)
    [
      ("bfdn", fun env -> Bfdn_algo.algo (Bfdn_algo.make env));
      ("cte", fun env -> Bfdn_baselines.Cte.make env);
      ("cte-wr", Bfdn_baselines.Cte_writeread.make);
      ("bfdn-wr", fun env -> Bfdn.Bfdn_planner.algo (Bfdn.Bfdn_planner.make env));
      ("bfdn-rec", fun env -> Bfdn.Bfdn_rec.algo (Bfdn.Bfdn_rec.make ~ell:2 env));
    ]

(* BFDN scales: a quarter-million-node instance explores in well under a
   second of wall-clock and exactly meets its invariants. *)
let test_scales_to_large_instances () =
  let tree =
    Tree_gen.random_tree ~rng:(Rng.create 123) ~n:250_000 ()
  in
  let env = Env.create tree ~k:128 in
  let t = Bfdn_algo.make env in
  let r = Exec_env.run (Exec_env.of_env (Bfdn_algo.algo t) env) in
  checkb "explored" true r.explored;
  checkb "at root" true r.at_root;
  checkb "within bound" true (float_of_int r.rounds <= thm1_bound env 128);
  Partial_tree.check_invariants (Env.view env)

(* ---- anchor-policy ablation ---- *)

let test_policies_still_explore () =
  let tree = Tree_gen.of_family "comb" ~rng:(Rng.create 23) ~n:400 ~depth_hint:10 in
  List.iter
    (fun (name, policy) ->
      let _, _, r = run_bfdn ~policy tree 9 in
      checkb (name ^ " explored") true r.explored;
      checkb (name ^ " at root") true r.at_root)
    [
      ("least loaded", Bfdn_algo.Least_loaded);
      ("first open", Bfdn_algo.First_open);
      ("random open", Bfdn_algo.Random_open (Rng.create 5));
    ]

let test_shortcut_variant_explores () =
  (* The shortcut-reanchor ablation keeps correctness (exploration +
     return) on every family, even though Theorem 1 is not claimed. *)
  let rng = Rng.create 55 in
  List.iter
    (fun fam ->
      let tree = Tree_gen.of_family fam ~rng ~n:400 ~depth_hint:12 in
      List.iter
        (fun k ->
          let env = Env.create tree ~k in
          let t = Bfdn_algo.make ~shortcut:true env in
          let r = Exec_env.run (Exec_env.of_env (Bfdn_algo.algo t) env) in
          checkb (Printf.sprintf "%s k=%d explored" fam k) true r.explored;
          checkb (Printf.sprintf "%s k=%d at root" fam k) true r.at_root;
          checkb (Printf.sprintf "%s k=%d no limit" fam k) false r.hit_round_limit)
        [ 1; 4; 16 ])
    Tree_gen.families

(* ---- Section 4.2: adversarial break-downs (Proposition 7) ---- *)

let breakdown_threshold env k =
  Bounds.bfdn_breakdown ~n:(Env.oracle_n env) ~k ~d:(Env.oracle_depth env)

(* Run BFDN under a mask; assert that whenever the average allowed moves
   A(M) passes the Proposition 7 threshold, the tree is fully explored. *)
let check_prop7 tree k mask =
  let env = Env.create ~fault:(Env.mask_hook mask) tree ~k in
  let t = Bfdn_algo.make env in
  let algo = { (Bfdn_algo.algo t) with Exec_env.finished = Env.fully_explored } in
  let violated = ref false in
  let watch _ =
    let avg = float_of_int (Env.allowed_total env) /. float_of_int k in
    if avg >= breakdown_threshold env k && not (Env.fully_explored env) then
      violated := true
  in
  let r =
    Exec_env.run ~max_rounds:500_000 ~on_round:watch (Exec_env.of_env algo env)
  in
  r.explored && not !violated

let test_prop7_random_masks () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let tree = random_tree (seed * 7) 250 in
      (* Memoized random mask: each (round, robot) allowed with prob 1/2,
         decided once (the adversary commits to M). *)
      let memo = Hashtbl.create 1024 in
      let mask ~round ~robot =
        match Hashtbl.find_opt memo (round, robot) with
        | Some b -> b
        | None ->
            let b = Rng.bool rng in
            Hashtbl.add memo (round, robot) b;
            b
      in
      checkb "prop7 random mask" true (check_prop7 tree 5 mask))
    [ 1; 2; 3 ]

let test_prop7_half_fleet_blocked () =
  let tree = random_tree 41 300 in
  let mask ~round:_ ~robot = robot mod 2 = 0 in
  checkb "half fleet forever blocked" true (check_prop7 tree 8 mask)

let test_prop7_alternating_rounds () =
  let tree = Tree_gen.of_family "comb" ~rng:(Rng.create 2) ~n:300 ~depth_hint:8 in
  let mask ~round ~robot = (round + robot) mod 3 <> 0 in
  checkb "rotating blocks" true (check_prop7 tree 6 mask)

let test_blocked_robot_never_moves () =
  let tree = random_tree 6 120 in
  let mask ~round:_ ~robot = robot <> 2 in
  let env = Env.create ~fault:(Env.mask_hook mask) tree ~k:4 in
  let t = Bfdn_algo.make env in
  let algo = { (Bfdn_algo.algo t) with Exec_env.finished = Env.fully_explored } in
  let r = Exec_env.run (Exec_env.of_env algo env) in
  checkb "explored without robot 2" true r.explored;
  checki "robot 2 pinned at root" 0 (Env.moves_of_robot env 2)

(* ---- Remark 8: reactive adversary that sees selected moves ---- *)

(* A reactive adversary that vetoes every selected discovery move stalls
   exploration forever even though the allowed-move budget A(M) keeps
   growing: Proposition 7's guarantee genuinely requires the oblivious
   mask model — the reactive model is exactly what Remark 8 leaves open. *)
let discovery_veto env view ~round:_ ~selected =
  Array.mapi
    (fun i m ->
      match m with
      | Env.Via_port p ->
          Partial_tree.port view (Env.position env i) p <> Partial_tree.Dangling
      | Env.Stay | Env.Up -> true)
    selected

let test_reactive_blocker_can_stall () =
  let tree = random_tree 71 250 in
  let k = 8 in
  let env = Env.create tree ~k in
  let view = Env.view env in
  Env.set_reactive_blocker env (discovery_veto env view);
  let t = Bfdn_algo.make env in
  let algo = { (Bfdn_algo.algo t) with Exec_env.finished = Env.fully_explored } in
  let r = Exec_env.run ~max_rounds:20_000 (Exec_env.of_env algo env) in
  checkb "stalled forever" false r.explored;
  (* ... although the per-robot allowance blew far past the Prop 7
     threshold: the guarantee does not survive a move-observing adversary. *)
  let threshold =
    Bounds.bfdn_breakdown ~n:(Env.oracle_n env) ~k ~d:(Env.oracle_depth env)
  in
  checkb "A(M) far beyond the oblivious threshold" true
    (float_of_int (Env.allowed_total env) /. float_of_int k > threshold)

let test_reactive_blocker_intermittent_completes () =
  (* If the reactive adversary must relent periodically (discovery allowed
     every third round), exploration completes again. *)
  let tree = random_tree 71 250 in
  let k = 8 in
  let env = Env.create tree ~k in
  let view = Env.view env in
  let veto = discovery_veto env view in
  Env.set_reactive_blocker env (fun ~round ~selected ->
      if round mod 3 = 0 then Array.make k true else veto ~round ~selected);
  let t = Bfdn_algo.make env in
  let algo = { (Bfdn_algo.algo t) with Exec_env.finished = Env.fully_explored } in
  let r = Exec_env.run ~max_rounds:1_000_000 (Exec_env.of_env algo env) in
  checkb "explored under intermittent vetoes" true r.explored

let test_reactive_blocker_arity_checked () =
  let env = Env.create (random_tree 3 20) ~k:3 in
  Env.set_reactive_blocker env (fun ~round:_ ~selected:_ -> [| true |]);
  checkb "bad arity rejected" true
    (try
       Env.apply env [| Env.Stay; Env.Stay; Env.Stay |];
       false
     with Invalid_argument _ -> true)

(* ---- determinism ---- *)

let test_deterministic_runs () =
  let tree = random_tree 100 300 in
  let _, _, r1 = run_bfdn tree 9 in
  let _, _, r2 = run_bfdn tree 9 in
  checki "same rounds" r1.rounds r2.rounds;
  checki "same moves" r1.moves r2.moves

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let qc t = QCheck_alcotest.to_alcotest t in
  ( "bfdn",
    [
      tc "explores all families" test_explores_all_families;
      tc "single robot is DFS" test_single_robot_is_dfs;
      tc "single node" test_single_node;
      tc "more robots than nodes" test_more_robots_than_nodes;
      tc "edge events complete" test_edge_events_complete;
      tc "claim 2: single discoverer" test_claim2_single_discoverer;
      qc prop_theorem1_random_trees;
      qc prop_theorem1_all_families;
      qc prop_theorem1_delta_side;
      tc "bound tight on star" test_bound_tight_on_star;
      tc "lemma 2 per depth" test_lemma2_per_depth;
      tc "reanchor totals" test_reanchors_total_consistency;
      tc "claim 4 invariant" test_claim4_invariant;
      tc "open subtrees hosted (all tree algos)" test_open_subtrees_hosted;
      tc "scales to 250k nodes" test_scales_to_large_instances;
      tc "policy ablation explores" test_policies_still_explore;
      tc "shortcut variant explores" test_shortcut_variant_explores;
      tc "prop 7 random masks" test_prop7_random_masks;
      tc "prop 7 half fleet blocked" test_prop7_half_fleet_blocked;
      tc "prop 7 rotating blocks" test_prop7_alternating_rounds;
      tc "blocked robot never moves" test_blocked_robot_never_moves;
      tc "reactive veto can stall (Remark 8)" test_reactive_blocker_can_stall;
      tc "intermittent reactive veto completes" test_reactive_blocker_intermittent_completes;
      tc "reactive blocker arity" test_reactive_blocker_arity_checked;
      tc "deterministic" test_deterministic_runs;
    ] )
