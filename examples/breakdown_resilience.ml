(* Break-down resilience (Section 4.2): an adversary freezes robots at
   will — flat batteries, lost radio links, whole half of the fleet dead —
   yet BFDN still visits every edge once the surviving move budget
   reaches 2n/k + D^2(log k + 3) moves per robot on average.

   Run with: dune exec examples/breakdown_resilience.exe *)

module Tree_gen = Bfdn_trees.Tree_gen
module Env = Bfdn_sim.Env
module Exec_env = Bfdn_sim.Exec_env
module Rng = Bfdn_util.Rng

let () =
  let tree = Tree_gen.random_tree ~rng:(Rng.create 5) ~n:4000 () in
  let stats = Bfdn_trees.Tree_stats.compute tree in
  let k = 24 in
  Format.printf "Exploring %a with k=%d robots under failures:@." Bfdn_trees.Tree_stats.pp
    stats k;
  let threshold = Bfdn.Bounds.bfdn_breakdown ~n:stats.n ~k ~d:stats.depth in
  let failure_rng = Rng.create 99 in
  let memo = Hashtbl.create 4096 in
  let flaky p ~round ~robot =
    match Hashtbl.find_opt memo (p, round, robot) with
    | Some b -> b
    | None ->
        let b = Rng.float failure_rng 1.0 < p in
        Hashtbl.add memo (p, round, robot) b;
        b
  in
  let scenarios =
    [
      ("no failures", fun ~round:_ ~robot:_ -> true);
      ("10% of moves dropped", flaky 0.9);
      ("60% of moves dropped", flaky 0.4);
      ("half the fleet is dead", fun ~round:_ ~robot -> robot < k / 2);
      ("fleet dies after round 300", fun ~round ~robot -> robot < 3 || round < 300);
    ]
  in
  List.iter
    (fun (name, mask) ->
      let env = Env.create ~fault:(Env.mask_hook mask) tree ~k in
      let state = Bfdn.Bfdn_algo.make env in
      (* blocked robots may never make it home: require full edge coverage
         only (the paper drops the return requirement here) *)
      let algo =
        { (Bfdn.Bfdn_algo.algo state) with Exec_env.finished = Env.fully_explored }
      in
      let r = Exec_env.run ~max_rounds:5_000_000 (Exec_env.of_env algo env) in
      let avg_allowed = float_of_int (Env.allowed_total env) /. float_of_int k in
      Printf.printf
        "  %-26s explored=%b in %6d rounds; allowed moves per robot %6.0f \
         (threshold %5.0f, used %4.1f%%)\n"
        name r.explored r.rounds avg_allowed threshold
        (100.0 *. avg_allowed /. threshold))
    scenarios;
  print_newline ();
  print_endline
    "Proposition 7: any failure pattern granting an average of\n\
     2n/k + D^2(log k + 3) moves per robot suffices to finish the job."
