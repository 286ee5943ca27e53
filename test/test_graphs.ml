(* Tests for the graph substrate and graph-BFDN (Section 4.3,
   Proposition 9). *)

module Graph = Bfdn_graphs.Graph
module Grid = Bfdn_graphs.Grid
module Genv = Bfdn_graphs.Graph_env
module Bfdn_graph = Bfdn.Bfdn_graph
module Exec_env = Bfdn_sim.Exec_env
module Bounds = Bfdn.Bounds
module Rng = Bfdn_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

(* A 4-cycle plus a pendant: 0-1, 1-2, 2-3, 3-0, 2-4 *)
let cycle_graph () = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 0); (2, 4) ]

(* ---- Graph ---- *)

let test_graph_basics () =
  let g = cycle_graph () in
  checki "n" 5 (Graph.n g);
  checki "edges" 5 (Graph.num_edges g);
  checki "degree 2" 3 (Graph.degree g 2);
  checki "max degree" 3 (Graph.max_degree g)

let test_graph_reverse_port () =
  let g = cycle_graph () in
  for v = 0 to Graph.n g - 1 do
    for p = 0 to Graph.degree g v - 1 do
      let w = Graph.neighbor g v p in
      let q = Graph.reverse_port g v p in
      checki "reverse port is an involution" v (Graph.neighbor g w q)
    done
  done

let test_graph_validation () =
  checkb "self loop" true (raises_invalid (fun () -> ignore (Graph.of_edges ~n:2 [ (0, 0) ])));
  checkb "duplicate" true
    (raises_invalid (fun () -> ignore (Graph.of_edges ~n:2 [ (0, 1); (1, 0) ])));
  checkb "out of range" true (raises_invalid (fun () -> ignore (Graph.of_edges ~n:2 [ (0, 5) ])))

let test_graph_bfs () =
  let g = cycle_graph () in
  let d = Graph.bfs_dist g 0 in
  checkb "distances" true (d = [| 0; 1; 2; 1; 3 |]);
  checki "eccentricity" 3 (Graph.eccentricity g 0)

let test_graph_disconnected () =
  let g = Graph.of_edges ~n:4 [ (0, 1) ] in
  let d = Graph.bfs_dist g 0 in
  checkb "unreachable marked" true (d.(2) = max_int);
  checkb "connected_from" true (Graph.connected_from g 0 = [| true; true; false; false |])

(* ---- Grid ---- *)

let test_grid_plain () =
  let grid = Grid.make { Grid.width = 4; height = 3; obstacles = [] } in
  checki "free cells" 12 (Grid.free_cells grid);
  checki "edges" ((3 * 3) + (2 * 4)) (Graph.num_edges (Grid.graph grid));
  checkb "origin cell" true (Grid.node_of_cell grid (0, 0) = Some (Grid.origin grid))

let test_grid_obstacle () =
  let grid = Grid.make { Grid.width = 3; height = 3; obstacles = [ (1, 1, 1, 1) ] } in
  checki "free cells" 8 (Grid.free_cells grid);
  checkb "center blocked" true (Grid.node_of_cell grid (1, 1) = None)

let test_grid_cut_off_region () =
  (* A full-height wall at x = 1 disconnects the right part. *)
  let grid = Grid.make { Grid.width = 4; height = 2; obstacles = [ (1, 0, 1, 1) ] } in
  checki "only the origin column remains" 2 (Grid.free_cells grid);
  checkb "right side unreachable" true (Grid.node_of_cell grid (3, 0) = None)

let test_grid_blocked_origin () =
  checkb "origin blocked rejected" true
    (raises_invalid (fun () ->
         ignore (Grid.make { Grid.width = 2; height = 2; obstacles = [ (0, 0, 0, 0) ] })))

let test_grid_random_spec () =
  let rng = Rng.create 77 in
  let spec = Grid.random_spec ~rng ~width:20 ~height:20 ~obstacle_count:10 ~max_side:4 in
  let grid = Grid.make spec in
  checkb "origin free" true (Grid.node_of_cell grid (0, 0) <> None);
  checkb "render has origin" true (String.contains (Grid.render grid) 'O')

let test_grid_cell_roundtrip () =
  let grid = Grid.make { Grid.width = 5; height = 4; obstacles = [ (2, 2, 3, 2) ] } in
  for v = 0 to Graph.n (Grid.graph grid) - 1 do
    let cell = Grid.cell_of_node grid v in
    checkb "roundtrip" true (Grid.node_of_cell grid cell = Some v)
  done

let test_manhattan_property () =
  (* Empty grids have Manhattan distances; a wall forcing a detour breaks
     the property — the geometric caveat behind Section 4.3's assumption. *)
  let empty = Grid.make { Grid.width = 6; height = 5; obstacles = [] } in
  checkb "empty grid manhattan" true (Grid.distance_is_manhattan empty);
  (* A vertical wall rising from the bottom edge blocks every monotone
     staircase to the cells just behind it: they need a detour. *)
  let wall = Grid.make { Grid.width = 6; height = 5; obstacles = [ (1, 0, 1, 3) ] } in
  checkb "detour breaks manhattan" false (Grid.distance_is_manhattan wall)

(* ---- Graph_env close rules ---- *)

let test_genv_initial () =
  let env = Genv.create (cycle_graph ()) ~origin:0 ~k:2 in
  checkb "origin explored" true (Genv.is_explored env 0);
  checki "dist origin" 0 (Genv.dist env 0);
  checki "unknown at origin" 2 (List.length (Genv.unknown_ports env 0));
  checkb "not done" false (Genv.fully_explored env)

let test_genv_tree_edge_growth () =
  let env = Genv.create (cycle_graph ()) ~origin:0 ~k:1 in
  Genv.apply env [| Genv.Via_port 0 |];
  let w = Genv.position env 0 in
  checkb "moved off origin" true (w <> 0);
  checkb "explored" true (Genv.is_explored env w);
  checkb "tree parent" true (match Genv.tree_parent env w with Some (0, _) -> true | _ -> false);
  checkb "no backtrack" false (Genv.needs_backtrack env 0)

let test_genv_close_on_equal_dist () =
  (* Triangle 0-1, 0-2, 1-2: the 1-2 edge connects equal distances and
     must be closed; node reached stays explored or unexplored per rule. *)
  let g = Graph.of_edges ~n:3 [ (0, 1); (0, 2); (1, 2) ] in
  let env = Genv.create g ~origin:0 ~k:1 in
  (* go to node 1 *)
  Genv.apply env [| Genv.Via_port 0 |];
  checki "at 1" 1 (Genv.position env 0);
  (* cross 1-2: dist 2 = dist 1 = 1, so the edge closes under our feet *)
  let p12 =
    let ports = Genv.unknown_ports env 1 in
    List.hd ports
  in
  Genv.apply env [| Genv.Via_port p12 |];
  checkb "needs backtrack" true (Genv.needs_backtrack env 0);
  checkb "2 not explored by a closed arrival" false (Genv.is_explored env 2);
  checki "one closed edge" 1 (Genv.closed_edges env);
  (* only Back (or Stay) is legal now *)
  checkb "moving elsewhere rejected" true
    (raises_invalid (fun () -> Genv.apply env [| Genv.Via_port 0 |]));
  Genv.apply env [| Genv.Back |];
  checki "back at 1" 1 (Genv.position env 0)

let test_genv_close_on_explored_arrival () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let env = Genv.create g ~origin:0 ~k:2 in
  (* robots split: 0 -> 1, 1 -> 2 *)
  Genv.apply env [| Genv.Via_port 0; Genv.Via_port 1 |];
  (* robot 0 explores 3 via 1; robot 1 stays *)
  let p13 = List.hd (Genv.unknown_ports env 1) in
  Genv.apply env [| Genv.Via_port p13; Genv.Stay |];
  checkb "3 explored" true (Genv.is_explored env 3);
  (* robot 1 now crosses 2-3 and arrives at an explored node: close *)
  let p23 = List.hd (Genv.unknown_ports env 2) in
  Genv.apply env [| Genv.Stay; Genv.Via_port p23 |];
  checkb "backtrack pending" true (Genv.needs_backtrack env 1);
  checki "closed" 1 (Genv.closed_edges env)

let test_genv_head_on_crossing () =
  (* Square 0-1-3-2-0: two robots meet head-on in the middle of edge 1-2?
     Edges: 0-1, 0-2, 1-3, 2-3. Robots at 1 and 2 cross 1-3 and 2-3... use
     a triangle variant with an equalizing edge instead: robots at 1 and 2
     cross the same edge 1-2 from both sides. *)
  let g = Graph.of_edges ~n:3 [ (0, 1); (0, 2); (1, 2) ] in
  let env = Genv.create g ~origin:0 ~k:2 in
  Genv.apply env [| Genv.Via_port 0; Genv.Via_port 1 |];
  checki "robot 0 at 1" 1 (Genv.position env 0);
  checki "robot 1 at 2" 2 (Genv.position env 1);
  let p1 = List.hd (Genv.unknown_ports env 1) in
  let p2 = List.hd (Genv.unknown_ports env 2) in
  Genv.apply env [| Genv.Via_port p1; Genv.Via_port p2 |];
  (* identity swap: the edge closes, nobody backtracks *)
  checki "closed" 1 (Genv.closed_edges env);
  checkb "no backtrack 0" false (Genv.needs_backtrack env 0);
  checkb "no backtrack 1" false (Genv.needs_backtrack env 1);
  checkb "fully explored" true (Genv.fully_explored env)

let test_genv_closed_edge_never_reused () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (0, 2); (1, 2) ] in
  let env = Genv.create g ~origin:0 ~k:2 in
  Genv.apply env [| Genv.Via_port 0; Genv.Via_port 1 |];
  let p1 = List.hd (Genv.unknown_ports env 1) in
  let p2 = List.hd (Genv.unknown_ports env 2) in
  Genv.apply env [| Genv.Via_port p1; Genv.Via_port p2 |];
  checkb "closed port rejected" true
    (raises_invalid (fun () -> Genv.apply env [| Genv.Via_port p1; Genv.Stay |]))

(* ---- random generators ---- *)

let test_gen_random_connected () =
  let g = Bfdn_graphs.Graph_gen.random_connected ~rng:(Rng.create 3) ~n:300 ~extra_edges:150 in
  checkb "connected" true (Array.for_all Fun.id (Graph.connected_from g 0));
  checkb "edge count" true
    (Graph.num_edges g >= 299 && Graph.num_edges g <= 299 + 150)

let test_gen_layered () =
  let g = Bfdn_graphs.Graph_gen.layered ~rng:(Rng.create 5) ~layers:8 ~width:6 ~chords:30 in
  checki "n" 49 (Graph.n g);
  checkb "connected" true (Array.for_all Fun.id (Graph.connected_from g 0));
  checkb "radius close to layers" true (Graph.eccentricity g 0 <= 2 * 8)

(* ---- graph-BFDN (Proposition 9) ---- *)

let run_graph_bfdn g origin k =
  let env = Genv.create g ~origin ~k in
  (env, Exec_env.run (Bfdn_graph.exec_env (Bfdn_graph.make env)))

let prop9_bound env k =
  Bounds.bfdn_graph ~n_edges:(Genv.oracle_n_edges env) ~k
    ~d:(Genv.oracle_radius env) ~delta:(Genv.oracle_max_degree env)

let test_bfdn_graph_single_robot () =
  let g = cycle_graph () in
  let env, r = run_graph_bfdn g 0 1 in
  checkb "explored" true r.explored;
  checkb "at origin" true r.at_root;
  ignore env;
  (* one robot pays exactly two traversals per edge *)
  checki "2|E| rounds" (2 * Graph.num_edges g) r.rounds

let test_bfdn_graph_on_tree_matches () =
  (* On an acyclic graph nothing closes and BFDN behaves as on trees. *)
  let g = Graph.of_edges ~n:6 [ (0, 1); (0, 2); (1, 3); (1, 4); (2, 5) ] in
  let env, r = run_graph_bfdn g 0 2 in
  checkb "explored" true r.explored;
  checki "no closed edges" 0 (Genv.closed_edges env)

let prop_proposition9_grids =
  QCheck.Test.make ~name:"Proposition 9 bound on random obstacle grids" ~count:25
    QCheck.(triple (int_range 3 18) (int_range 3 18) (pair (int_range 0 8) (int_range 1 20)))
    (fun (w, h, (obstacles, k)) ->
      let rng = Rng.create ((w * 1000) + (h * 10) + obstacles) in
      let spec = Grid.random_spec ~rng ~width:w ~height:h ~obstacle_count:obstacles ~max_side:3 in
      let grid = Grid.make spec in
      let env, r = run_graph_bfdn (Grid.graph grid) (Grid.origin grid) k in
      r.explored && r.at_root && float_of_int r.rounds <= prop9_bound env k)

let test_genv_invariants_during_run () =
  let g = Bfdn_graphs.Graph_gen.random_connected ~rng:(Rng.create 12) ~n:150 ~extra_edges:80 in
  let env = Genv.create g ~origin:0 ~k:5 in
  let r =
    Exec_env.run ~max_rounds:100000 (Bfdn_graph.exec_env (Bfdn_graph.make env))
  in
  checkb "explored" true r.explored;
  Genv.check_invariants env

let test_bfs_tree_property () =
  (* After exploration, every explored node's tree parent is strictly
     closer to the origin: the never-closed edges form a BFS tree. *)
  let rng = Rng.create 99 in
  let spec = Grid.random_spec ~rng ~width:15 ~height:15 ~obstacle_count:6 ~max_side:4 in
  let grid = Grid.make spec in
  let g = Grid.graph grid in
  let env, r = run_graph_bfdn g (Grid.origin grid) 5 in
  checkb "explored" true r.explored;
  let ok = ref true in
  for v = 0 to Graph.n g - 1 do
    if Genv.is_explored env v && v <> Genv.origin env then
      match Genv.tree_parent env v with
      | Some (parent, _) -> if Genv.dist env parent + 1 <> Genv.dist env v then ok := false
      | None -> ok := false
  done;
  checkb "BFS-tree parents" true !ok;
  checkb "all nodes explored" true
    (Array.for_all Fun.id (Array.init (Graph.n g) (fun v -> Genv.is_explored env v)))

let test_bfdn_graph_dense () =
  (* Complete graph K6: heavy closing, radius 1. *)
  let edges = ref [] in
  for u = 0 to 5 do
    for v = u + 1 to 5 do
      edges := (u, v) :: !edges
    done
  done;
  let g = Graph.of_edges ~n:6 !edges in
  List.iter
    (fun k ->
      let env, r = run_graph_bfdn g 0 k in
      checkb "explored" true r.explored;
      checkb "within bound" true (float_of_int r.rounds <= prop9_bound env k))
    [ 1; 3; 6 ]

let prop_proposition9_random_graphs =
  QCheck.Test.make ~name:"Proposition 9 bound on random connected graphs" ~count:30
    QCheck.(triple (int_range 2 250) (int_range 0 200) (int_range 1 24))
    (fun (n, extra, k) ->
      let g =
        Bfdn_graphs.Graph_gen.random_connected
          ~rng:(Rng.create ((n * 37) + extra)) ~n ~extra_edges:extra
      in
      let env, r = run_graph_bfdn g 0 k in
      r.explored && r.at_root && float_of_int r.rounds <= prop9_bound env k)

let test_prop9_layered () =
  let g = Bfdn_graphs.Graph_gen.layered ~rng:(Rng.create 8) ~layers:12 ~width:10 ~chords:80 in
  List.iter
    (fun k ->
      let env, r = run_graph_bfdn g 0 k in
      checkb (Printf.sprintf "layered k=%d explored" k) true r.explored;
      checkb (Printf.sprintf "layered k=%d bound" k) true
        (float_of_int r.rounds <= prop9_bound env k))
    [ 1; 4; 16 ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let qc t = QCheck_alcotest.to_alcotest t in
  ( "graphs",
    [
      tc "graph basics" test_graph_basics;
      tc "graph reverse port" test_graph_reverse_port;
      tc "graph validation" test_graph_validation;
      tc "graph bfs" test_graph_bfs;
      tc "graph disconnected" test_graph_disconnected;
      tc "grid plain" test_grid_plain;
      tc "grid obstacle" test_grid_obstacle;
      tc "grid cut-off region" test_grid_cut_off_region;
      tc "grid blocked origin" test_grid_blocked_origin;
      tc "grid random spec" test_grid_random_spec;
      tc "grid cell roundtrip" test_grid_cell_roundtrip;
      tc "manhattan property" test_manhattan_property;
      tc "genv initial" test_genv_initial;
      tc "genv tree edge growth" test_genv_tree_edge_growth;
      tc "genv close on equal dist" test_genv_close_on_equal_dist;
      tc "genv close on explored arrival" test_genv_close_on_explored_arrival;
      tc "genv head-on crossing" test_genv_head_on_crossing;
      tc "genv closed edge never reused" test_genv_closed_edge_never_reused;
      tc "graph-bfdn single robot" test_bfdn_graph_single_robot;
      tc "graph-bfdn on tree" test_bfdn_graph_on_tree_matches;
      qc prop_proposition9_grids;
      tc "bfs tree property" test_bfs_tree_property;
      tc "graph-bfdn dense" test_bfdn_graph_dense;
      tc "gen random connected" test_gen_random_connected;
      tc "gen layered" test_gen_layered;
      qc prop_proposition9_random_graphs;
      tc "prop 9 on layered graphs" test_prop9_layered;
      tc "genv invariants after run" test_genv_invariants_during_run;
    ] )
