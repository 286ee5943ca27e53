(* Warehouse sweep: a robot swarm must traverse every aisle of a warehouse
   floor (a grid graph with rectangular shelving obstacles, the Section
   4.3 setting of the paper via Ortolf & Schindelhauer's model) and
   return to the charging dock at the corner.

   Robots know their distance to the dock (trivially available indoors);
   graph-BFDN closes the non-shortest edges on the fly and explores the
   rest as a tree, within 2|E|/k + D^2(min(log Δ, log k)+3) rounds.

   Run with: dune exec examples/warehouse_sweep.exe *)

module Grid = Bfdn_graphs.Grid
module Graph = Bfdn_graphs.Graph
module Genv = Bfdn_graphs.Graph_env
module Rng = Bfdn_util.Rng

let () =
  let rng = Rng.create 7 in
  let spec = Grid.random_spec ~rng ~width:34 ~height:14 ~obstacle_count:12 ~max_side:4 in
  let grid = Grid.make spec in
  print_endline "Warehouse floor ('O' = charging dock, '#' = shelving):";
  print_string (Grid.render grid);
  let g = Grid.graph grid in
  Printf.printf "\n%d reachable cells, %d aisles (edges), radius %d\n\n"
    (Grid.free_cells grid) (Graph.num_edges g)
    (Graph.eccentricity g (Grid.origin grid));
  List.iter
    (fun k ->
      let env = Genv.create g ~origin:(Grid.origin grid) ~k in
      let sweep = Bfdn.Bfdn_graph.make env in
      let r = Bfdn_sim.Exec_env.run (Bfdn.Bfdn_graph.exec_env sweep) in
      let bound =
        Bfdn.Bounds.bfdn_graph ~n_edges:(Genv.oracle_n_edges env) ~k
          ~d:(Genv.oracle_radius env) ~delta:(Genv.oracle_max_degree env)
      in
      Printf.printf
        "k=%3d robots: swept every aisle in %5d rounds (guarantee %6.0f), \
         %d loop edges closed, all docked=%b\n"
        k r.rounds bound (Genv.closed_edges env) r.at_root)
    [ 1; 4; 16; 64 ];
  print_newline ();
  print_endline
    "The edges never closed form a shortest-path tree of the floor: after\n\
     the sweep, any robot can navigate optimally back to the dock."
