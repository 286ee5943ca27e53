(* Round-by-round rendering of BFDN on a small tree: watch robots fan out
   breadth-first to their anchors, then depth-next through the dangling
   edges, and regroup at the root.

   Run with: dune exec examples/depth_next_animation.exe *)

module Tree_gen = Bfdn_trees.Tree_gen
module Env = Bfdn_sim.Env
module Runner = Bfdn_sim.Runner
module Trace = Bfdn_sim.Trace

let () =
  let tree = Tree_gen.comb ~spine:3 ~tooth_len:2 in
  let env = Env.create tree ~k:3 in
  let state = Bfdn.Bfdn_algo.make env in
  print_endline "BFDN with 3 robots on a small comb; (+c?) = c dangling edges:\n";
  print_string (Trace.render_frame env);
  let trace = Trace.create () in
  Trace.record trace env;
  let on_round env =
    Trace.record trace env;
    print_newline ();
    print_string (Trace.render_frame env)
  in
  let r = Runner.run ~on_round (Bfdn.Bfdn_algo.algo state) env in
  Printf.printf
    "\nDone: %d nodes explored in %d rounds, everyone back at the root.\n"
    (Bfdn_sim.Partial_tree.num_explored (Env.view env))
    r.rounds;
  Printf.printf "Reanchor calls per depth:";
  for d = 0 to Env.oracle_depth env do
    Printf.printf " d%d:%d" d (Bfdn.Bfdn_algo.reanchors_at_depth state d)
  done;
  print_newline ();
  print_newline ();
  (* The same wave on a larger instance, as a depth-occupancy heat map. *)
  let tree = Tree_gen.comb ~spine:30 ~tooth_len:2 in
  let env = Env.create tree ~k:24 in
  let state = Bfdn.Bfdn_algo.make env in
  let trace = Trace.create () in
  Trace.record trace env;
  ignore (Runner.run ~on_round:(Trace.record trace) (Bfdn.Bfdn_algo.algo state) env);
  print_endline "The breadth-first wave on a 30x2 comb with 24 robots:";
  print_string (Trace.depth_timeline trace env)
