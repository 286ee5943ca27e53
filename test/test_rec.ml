(* Tests for the recursive BFDN_ell (Section 5, Theorem 10). *)

module Tree = Bfdn_trees.Tree
module Tree_gen = Bfdn_trees.Tree_gen
module Env = Bfdn_sim.Env
module Exec_env = Bfdn_sim.Exec_env
module Bfdn_rec = Bfdn.Bfdn_rec
module Bounds = Bfdn.Bounds
module Rng = Bfdn_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let run_rec tree k ell =
  let env = Env.create tree ~k in
  let t = Bfdn_rec.make ~ell env in
  let r = Exec_env.run (Exec_env.of_env (Bfdn_rec.algo t) env) in
  (env, t, r)

let random_tree seed n =
  let r = Rng.create seed in
  Tree.of_parents (Array.init n (fun v -> if v = 0 then -1 else Rng.int r v))

let thm10_bound env k ell =
  Bounds.bfdn_rec ~n:(Env.oracle_n env) ~k ~d:(Env.oracle_depth env)
    ~delta:(Env.oracle_max_degree env) ~ell

let test_invalid_ell () =
  let env = Env.create (Tree_gen.path 3) ~k:2 in
  checkb "ell 0 rejected" true
    (try
       ignore (Bfdn_rec.make ~ell:0 env);
       false
     with Invalid_argument _ -> true)

let test_robots_used () =
  let env = Env.create (Tree_gen.path 3) ~k:27 in
  checki "27^(1/3) cubed" 27 (Bfdn_rec.robots_used (Bfdn_rec.make ~ell:3 env));
  let env = Env.create (Tree_gen.path 3) ~k:30 in
  checki "floor root" 27 (Bfdn_rec.robots_used (Bfdn_rec.make ~ell:3 env));
  let env = Env.create (Tree_gen.path 3) ~k:5 in
  checki "ell 1 uses all" 5 (Bfdn_rec.robots_used (Bfdn_rec.make ~ell:1 env))

let test_explores_all_families () =
  let rng = Rng.create 2 in
  List.iter
    (fun fam ->
      let tree = Tree_gen.of_family fam ~rng ~n:300 ~depth_hint:12 in
      List.iter
        (fun (k, ell) ->
          let _, _, r = run_rec tree k ell in
          checkb (Printf.sprintf "%s k=%d ell=%d explored" fam k ell) true r.explored;
          checkb (Printf.sprintf "%s k=%d ell=%d no limit" fam k ell) false r.hit_round_limit)
        [ (1, 1); (4, 2); (9, 2); (8, 3); (20, 2) ])
    Tree_gen.families

let prop_theorem10_random_trees =
  QCheck.Test.make ~name:"Theorem 10 bound on random trees" ~count:40
    QCheck.(triple (int_range 2 250) (int_range 1 36) (int_range 1 3))
    (fun (n, k, ell) ->
      let tree = random_tree ((n * 37) + k + ell) n in
      let env, _, r = run_rec tree k ell in
      r.explored && float_of_int r.rounds <= thm10_bound env k ell)

let prop_theorem10_families =
  QCheck.Test.make ~name:"Theorem 10 bound on all families" ~count:20
    QCheck.(triple (int_range 2 300) (int_range 1 30) (int_range 1 14))
    (fun (n, k, d) ->
      List.for_all
        (fun fam ->
          let tree = Tree_gen.of_family fam ~rng:(Rng.create (n * 3 + k)) ~n ~depth_hint:d in
          List.for_all
            (fun ell ->
              let env, _, r = run_rec tree k ell in
              r.explored && float_of_int r.rounds <= thm10_bound env k ell)
            [ 1; 2; 3 ])
        Tree_gen.families)

let test_calls_grow_with_depth () =
  let shallow = Tree_gen.star 100 in
  let deep = Tree_gen.path 200 in
  let _, t1, _ = run_rec shallow 4 2 in
  let _, t2, _ = run_rec deep 4 2 in
  checkb "deep trees need more calls" true
    (Bfdn_rec.calls_started t2 > Bfdn_rec.calls_started t1)

let test_single_node () =
  let _, _, r = run_rec (Tree.of_parents [| -1 |]) 8 2 in
  checkb "explored" true r.explored;
  checki "rounds" 0 r.rounds

let test_deterministic () =
  let tree = random_tree 44 250 in
  let _, _, r1 = run_rec tree 16 2 in
  let _, _, r2 = run_rec tree 16 2 in
  checki "same rounds" r1.rounds r2.rounds

(* On deep trees, higher ell eventually pays off in measured rounds too —
   at minimum it never explodes past its own bound while plain BFDN's
   bound grows as D^2. *)
let test_rec_handles_deep_trees () =
  let tree = Tree_gen.comb ~spine:60 ~tooth_len:20 in
  let env, _, r = run_rec tree 64 3 in
  checkb "explored" true r.explored;
  checkb "within Theorem 10" true (float_of_int r.rounds <= thm10_bound env 64 3)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let qc t = QCheck_alcotest.to_alcotest t in
  ( "bfdn-rec",
    [
      tc "invalid ell" test_invalid_ell;
      tc "robots used" test_robots_used;
      tc "explores all families" test_explores_all_families;
      qc prop_theorem10_random_trees;
      qc prop_theorem10_families;
      tc "calls grow with depth" test_calls_grow_with_depth;
      tc "single node" test_single_node;
      tc "deterministic" test_deterministic;
      tc "handles deep trees" test_rec_handles_deep_trees;
    ] )
