(* Adaptive adversary: the forest fights back. The hidden tree is grown
   ONLINE against the explorer — a node's children are decided only at the
   moment a robot steps on it — in the spirit of the lower-bound
   constructions the paper builds on (Higashikawa et al. for CTE).

   Because the explorers are deterministic, the grown tree can be frozen
   and replayed: the re-run takes exactly as many rounds, which is how
   adaptive lower bounds turn into concrete worst-case instances.

   Run with: dune exec examples/adaptive_adversary.exe *)

module Env = Bfdn_sim.Env
module Runner = Bfdn_sim.Runner
module Adversary = Bfdn_sim.Adversary
module Lazy_world = Bfdn_sim.Lazy_world

let duel name make_adv =
  Printf.printf "--- adversary: %s ---\n" name;
  List.iter
    (fun (algo_name, make_algo) ->
      let adv = make_adv () in
      let env = Env.of_world (Lazy_world.world adv) ~k:32 in
      let r = Runner.run (make_algo env) env in
      let tree = Lazy_world.frozen adv in
      let stats = Bfdn_trees.Tree_stats.compute tree in
      let env2 = Env.create tree ~k:32 in
      let r2 = Runner.run (make_algo env2) env2 in
      let lb = Bfdn.Bounds.offline_lb ~n:stats.n ~k:32 ~d:(max 1 stats.depth) in
      Printf.printf
        "  vs %-5s grew n=%-5d D=%-4d | %5d rounds (%.2fx offline bound), \
         frozen replay %5d (identical=%b)\n"
        algo_name stats.n stats.depth r.rounds
        (float_of_int r.rounds /. lb)
        r2.rounds (r2.rounds = r.rounds))
    [
      ("bfdn", fun env -> Bfdn.Bfdn_algo.algo (Bfdn.Bfdn_algo.make env));
      ("cte", fun env -> Bfdn_baselines.Cte.make env);
    ]

let () =
  print_endline "Each algorithm explores a tree grown adaptively against it (k = 32).\n";
  duel "thick comb (spine + dead teeth)" (fun () ->
      Adversary.make_rec ~capacity:3000 ~depth_budget:1000 Adversary.thick_comb);
  duel "corridor for crowds" (fun () ->
      Adversary.make ~capacity:3000 ~depth_budget:60
        (Adversary.corridor_crowds ~threshold:2));
  duel "budget bomb (max width)" (fun () ->
      Adversary.make ~capacity:3000 ~depth_budget:4 Adversary.greedy_widest);
  print_newline ();
  print_endline
    "BFDN never exceeds its Theorem 1 guarantee here: the theorem is per-tree,\n\
     and an adaptively grown tree freezes into an ordinary instance."
