(* Adaptive adversary: the forest fights back. The hidden tree is grown
   ONLINE against the explorer — a node's children are decided only at the
   moment a robot steps on it — in the spirit of the lower-bound
   constructions the paper builds on (Higashikawa et al. for CTE).

   Because the explorers are deterministic, the grown tree can be frozen
   and replayed: the re-run takes exactly as many rounds, which is how
   adaptive lower bounds turn into concrete worst-case instances.
   [Scenario.run] performs that replay for every adversarial spec.

   Run with: dune exec examples/adaptive_adversary.exe *)

module Scenario = Bfdn_scenario.Scenario

let duel name ~policy ~depth_budget =
  Printf.printf "--- adversary: %s ---\n" name;
  List.iter
    (fun algo ->
      let o =
        Scenario.run
          (Scenario.make ~algo ~k:32
             (Scenario.adversarial ~policy ~capacity:3000 ~depth_budget))
      in
      let replay = Option.get o.replay_rounds in
      let lb = Bfdn.Bounds.offline_lb ~n:o.n ~k:32 ~d:(max 1 o.depth) in
      Printf.printf
        "  vs %-5s grew n=%-5d D=%-4d | %5d rounds (%.2fx offline bound), \
         frozen replay %5d (identical=%b)\n"
        algo o.n o.depth o.result.rounds
        (float_of_int o.result.rounds /. lb)
        replay (replay = o.result.rounds))
    [ "bfdn"; "cte" ]

let () =
  print_endline "Each algorithm explores a tree grown adaptively against it (k = 32).\n";
  duel "thick comb (spine + dead teeth)" ~policy:"thick-comb" ~depth_budget:1000;
  (* the corridor policy's default crowd threshold is 2 *)
  duel "corridor for crowds" ~policy:"corridor" ~depth_budget:60;
  duel "budget bomb (max width)" ~policy:"bomb" ~depth_budget:4;
  print_newline ();
  print_endline
    "BFDN never exceeds its Theorem 1 guarantee here: the theorem is per-tree,\n\
     and an adaptively grown tree freezes into an ordinary instance."
