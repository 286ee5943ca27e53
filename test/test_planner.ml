(* Tests for the write-read / restricted-memory BFDN (Section 4.1,
   Algorithm 2, Proposition 6). *)

module Tree = Bfdn_trees.Tree
module Tree_gen = Bfdn_trees.Tree_gen
module Env = Bfdn_sim.Env
module Exec_env = Bfdn_sim.Exec_env
module Bfdn_planner = Bfdn.Bfdn_planner
module Bounds = Bfdn.Bounds
module Rng = Bfdn_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let run_planner tree k =
  let env = Env.create tree ~k in
  let t = Bfdn_planner.make env in
  let r = Exec_env.run (Exec_env.of_env (Bfdn_planner.algo t) env) in
  (env, t, r)

let random_tree seed n =
  let r = Rng.create seed in
  Tree.of_parents (Array.init n (fun v -> if v = 0 then -1 else Rng.int r v))

let test_explores_all_families () =
  let rng = Rng.create 4 in
  List.iter
    (fun fam ->
      let tree = Tree_gen.of_family fam ~rng ~n:350 ~depth_hint:10 in
      List.iter
        (fun k ->
          let _, _, r = run_planner tree k in
          checkb (Printf.sprintf "%s k=%d explored" fam k) true r.explored;
          checkb (Printf.sprintf "%s k=%d at root" fam k) true r.at_root;
          checkb (Printf.sprintf "%s k=%d no limit" fam k) false r.hit_round_limit)
        [ 1; 5; 19 ])
    Tree_gen.families

let test_single_node () =
  let _, _, r = run_planner (Tree.of_parents [| -1 |]) 3 in
  checkb "explored" true r.explored;
  checki "rounds" 0 r.rounds

let prop_proposition6_bound =
  QCheck.Test.make ~name:"Proposition 6 bound on random trees" ~count:50
    QCheck.(pair (int_range 2 250) (int_range 1 24))
    (fun (n, k) ->
      let tree = random_tree (n * 17 + k) n in
      let env, _, r = run_planner tree k in
      let bound =
        Bounds.bfdn_writeread ~n:(Env.oracle_n env) ~k ~d:(Env.oracle_depth env)
          ~delta:(Env.oracle_max_degree env)
      in
      r.explored && r.at_root && float_of_int r.rounds <= bound)

let prop_proposition6_families =
  QCheck.Test.make ~name:"Proposition 6 bound on all families" ~count:25
    QCheck.(triple (int_range 2 300) (int_range 1 16) (int_range 1 12))
    (fun (n, k, d) ->
      List.for_all
        (fun fam ->
          let tree = Tree_gen.of_family fam ~rng:(Rng.create (n + k)) ~n ~depth_hint:d in
          let env, _, r = run_planner tree k in
          let bound =
            Bounds.bfdn_writeread ~n:(Env.oracle_n env) ~k ~d:(Env.oracle_depth env)
              ~delta:(Env.oracle_max_degree env)
          in
          r.explored && r.at_root && float_of_int r.rounds <= bound)
        Tree_gen.families)

let test_working_depth_advances () =
  (* On a path with several robots the probing robots chase the explorer
     down: the planner's working depth must advance past the first levels
     (a single DFS excursion finishes whole subtrees, so it need not reach
     the bottom). *)
  let tree = Tree_gen.path 20 in
  let _, t, r = run_planner tree 3 in
  checkb "explored" true r.explored;
  checkb "depth advanced" true (Bfdn_planner.working_depth t >= 2);
  checkb "depth within D" true (Bfdn_planner.working_depth t <= 20)

let test_assignment_accounting () =
  let tree = random_tree 8 300 in
  let _, t, r = run_planner tree 7 in
  checkb "explored" true r.explored;
  let per_depth = ref 0 in
  for d = 0 to 300 do
    per_depth := !per_depth + Bfdn_planner.assignments_at_depth t d
  done;
  checki "totals agree" (Bfdn_planner.assignments_total t) !per_depth;
  checkb "assignments happened" true (Bfdn_planner.assignments_total t > 0)

(* The write-read model explores every edge exactly twice in terms of edge
   events, like the complete-communication version. *)
let test_edge_events_complete () =
  let tree = random_tree 15 250 in
  let env, _, r = run_planner tree 6 in
  checkb "explored" true r.explored;
  checki "edge events" (2 * (Tree.n tree - 1)) (Env.edge_events env)

(* Comparable magnitude to complete-communication BFDN: the restricted
   model is at most a small factor slower on benign instances. *)
let test_not_catastrophically_slower () =
  let tree = random_tree 21 400 in
  let env1 = Env.create tree ~k:8 in
  let t1 = Bfdn.Bfdn_algo.make env1 in
  let r1 = Exec_env.run (Exec_env.of_env (Bfdn.Bfdn_algo.algo t1) env1) in
  let _, _, r2 = run_planner tree 8 in
  checkb "within 4x of complete-comm" true (r2.rounds <= 4 * r1.rounds + 50)

(* Section 4.1's memory claim: robots operate with Delta + D log Delta
   bits (port stack + finished-port set). *)
let test_memory_within_claim () =
  List.iter
    (fun fam ->
      let tree = Tree_gen.of_family fam ~rng:(Rng.create 31) ~n:400 ~depth_hint:12 in
      let env, t, r = run_planner tree 9 in
      checkb (fam ^ " explored") true r.explored;
      let d = Env.oracle_depth env and delta = Env.oracle_max_degree env in
      checkb (fam ^ " stack within depth") true (Bfdn_planner.max_stack_length t <= d);
      let claim = delta + ((d + 1) * Bfdn_util.Mathx.ceil_log2 (max 2 delta)) in
      checkb (fam ^ " memory within Delta + D log Delta") true
        (Bfdn_planner.memory_bits_used t <= claim))
    [ "random"; "star"; "comb"; "broom"; "caterpillar" ]

(* The write-read analogue of Lemma 2: per-depth assignments stay within
   the urn-game budget (+k slack for the final sweep). *)
let test_assignments_per_depth_bounded () =
  List.iter
    (fun fam ->
      let tree = Tree_gen.of_family fam ~rng:(Rng.create 37) ~n:500 ~depth_hint:10 in
      let env, t, r = run_planner tree 12 in
      checkb (fam ^ " explored") true r.explored;
      let delta = Env.oracle_max_degree env in
      let cap = Bfdn.Bounds.urn_game ~delta ~k:12 +. 12.0 in
      for d = 1 to Env.oracle_depth env do
        checkb
          (Printf.sprintf "%s assignments at depth %d bounded" fam d)
          true
          (float_of_int (Bfdn_planner.assignments_at_depth t d) <= cap)
      done)
    [ "random"; "comb"; "caterpillar"; "trap" ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let qc t = QCheck_alcotest.to_alcotest t in
  ( "planner",
    [
      tc "explores all families" test_explores_all_families;
      tc "single node" test_single_node;
      qc prop_proposition6_bound;
      qc prop_proposition6_families;
      tc "working depth advances" test_working_depth_advances;
      tc "assignment accounting" test_assignment_accounting;
      tc "edge events complete" test_edge_events_complete;
      tc "not catastrophically slower" test_not_catastrophically_slower;
      tc "memory within Section 4.1 claim" test_memory_within_claim;
      tc "per-depth assignments bounded" test_assignments_per_depth_bounded;
    ] )
