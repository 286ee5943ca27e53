(* Quickstart: explore an unknown random tree with a team of robots using
   BFDN, and compare the round count with the Theorem 1 guarantee and the
   offline lower bound.

   Run with: dune exec examples/quickstart.exe *)

module Tree_gen = Bfdn_trees.Tree_gen
module Env = Bfdn_sim.Env
module Exec_env = Bfdn_sim.Exec_env
module Rng = Bfdn_util.Rng

let () =
  let rng = Rng.create 2023 in
  let tree = Tree_gen.random_tree ~rng ~n:10_000 () in
  let stats = Bfdn_trees.Tree_stats.compute tree in
  Format.printf "Unknown tree drawn: %a@." Bfdn_trees.Tree_stats.pp stats;
  List.iter
    (fun k ->
      (* The environment hides the tree; the algorithm only sees the
         discovered part. *)
      let env = Env.create tree ~k in
      let bfdn = Bfdn.Bfdn_algo.make env in
      let result =
        Exec_env.run (Exec_env.of_env (Bfdn.Bfdn_algo.algo bfdn) env)
      in
      let bound =
        Bfdn.Bounds.bfdn ~n:stats.n ~k ~d:stats.depth ~delta:stats.max_degree
      in
      let lower = Bfdn.Bounds.offline_lb ~n:stats.n ~k ~d:stats.depth in
      Printf.printf
        "k=%4d  rounds=%6d  explored=%b  back at root=%b  |  guarantee=%8.0f  \
         offline lb=%6.0f  overhead vs lb=%.2fx\n"
        k result.rounds result.explored result.at_root bound lower
        (float_of_int result.rounds /. lower))
    [ 1; 4; 16; 64; 256 ];
  print_newline ();
  print_endline
    "The guarantee 2n/k + D^2(min(log k, log Delta) + 3) always holds;\n\
     on shallow trees BFDN's rounds track the offline optimum max(2(n-1)/k, 2D)."
