(* Tests for the exploration environment: discovery semantics, move
   legality, synchronous application, masks, whiteboards and traces. *)

module Tree = Bfdn_trees.Tree
module Tree_gen = Bfdn_trees.Tree_gen
module Env = Bfdn_sim.Env
module Partial_tree = Bfdn_sim.Partial_tree
module Whiteboard = Bfdn_sim.Whiteboard
module Exec_env = Bfdn_sim.Exec_env
module Trace = Bfdn_sim.Trace
module Ring = Bfdn_obs.Sink.Ring
module Rng = Bfdn_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let small () = Tree.of_parents [| -1; 0; 0; 1; 1; 2 |]

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

(* ---- initial state ---- *)

let test_create_initial () =
  let env = Env.create (small ()) ~k:3 in
  let view = Env.view env in
  checki "k" 3 (Env.k env);
  checki "round" 0 (Env.round env);
  checkb "root explored" true (Partial_tree.is_explored view 0);
  checki "explored count" 1 (Partial_tree.num_explored view);
  checki "dangling at root" 2 (Partial_tree.num_dangling view);
  checkb "positions at root" true (Env.positions env = [| 0; 0; 0 |]);
  checkb "not fully explored" false (Env.fully_explored env);
  checkb "all at root" true (Env.all_at_root env)

let test_single_node_tree () =
  let env = Env.create (Tree.of_parents [| -1 |]) ~k:2 in
  checkb "explored" true (Env.fully_explored env)

(* ---- legality ---- *)

let test_up_at_root_rejected () =
  let env = Env.create (small ()) ~k:1 in
  checkb "Up at root" true (raises_invalid (fun () -> Env.apply env [| Env.up |]))

let test_bad_port_rejected () =
  let env = Env.create (small ()) ~k:1 in
  checkb "port out of range" true
    (raises_invalid (fun () -> Env.apply env [| Env.via 2 |]))

let test_wrong_arity_rejected () =
  let env = Env.create (small ()) ~k:2 in
  checkb "wrong arity" true
    (raises_invalid (fun () -> Env.apply env [| Env.stay |]))

(* ---- move codes ---- *)

let test_move_codes () =
  checki "stay" (-2) (Env.stay :> int);
  checki "up" (-1) (Env.up :> int);
  checki "via" 3 (Env.via 3 :> int)

(* A rejected round leaves the environment as it was: every code is
   resolved before anything moves. *)
let test_bad_codes_rejected () =
  let rejects msg moves =
    let env = Env.create (small ()) ~k:2 in
    Env.apply env [| Env.via 0; Env.via 1 |];
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        Env.apply env moves);
    checki "round unchanged" 1 (Env.round env);
    checkb "positions unchanged" true (Env.positions env = [| 1; 2 |])
  in
  rejects "Env.apply: port out of range" [| Env.stay; Env.via (-3) |];
  rejects "Env.apply: port out of range" [| Env.via (-3); Env.stay |];
  (* node 1 has ports 0..2, node 2 has 0..1 *)
  rejects "Env.apply: port out of range" [| Env.via 3; Env.stay |];
  rejects "Env.apply: port out of range" [| Env.up; Env.via 2 |];
  let env = Env.create (small ()) ~k:2 in
  Alcotest.check_raises "up at the root"
    (Invalid_argument "Env.apply: Up selected at the root") (fun () ->
      Env.apply env [| Env.stay; Env.up |])

let test_masked_code_not_validated () =
  let mask ~round:_ ~robot = robot = 0 in
  let env = Env.create ~fault:(Env.mask_hook mask) (small ()) ~k:3 in
  Env.apply env [| Env.via 0; Env.via (-5); Env.up |];
  Env.apply env [| Env.via 1; Env.via 9; Env.via 0 |];
  checkb "masked robots stay" true (Env.positions env = [| 3; 0; 0 |]);
  checki "moves" 2 (Env.moves_total env)

let test_reactive_blocker_sees_codes () =
  let env = Env.create (small ()) ~k:3 in
  let seen = ref [] in
  Env.set_reactive_blocker env (fun ~round:_ ~selected ->
      seen := Array.to_list (Array.map (fun (m : Env.move) -> (m :> int)) selected);
      (* the blocker holds a copy: scribbling on it changes nothing *)
      Array.fill selected 0 3 Env.up;
      [| true; false; true |]);
  let moves = [| Env.via 1; Env.via (-4); Env.stay |] in
  Env.apply env moves;
  checkb "selected codes" true (!seen = [ 1; -4; -2 ]);
  checkb "the caller's array is untouched" true
    (moves = [| Env.via 1; Env.via (-4); Env.stay |]);
  checkb "blocked robot stays" true (Env.positions env = [| 2; 0; 0 |])

(* ---- discovery semantics ---- *)

let test_discovery () =
  let env = Env.create (small ()) ~k:1 in
  let view = Env.view env in
  Env.apply env [| Env.via 0 |];
  (* robot moved to node 1 *)
  checki "position" 1 (Env.position env 0);
  checkb "1 explored" true (Partial_tree.is_explored view 1);
  checki "ports of 1" 3 (Partial_tree.num_ports view 1);
  checkb "port 0 is parent" true (Partial_tree.port view 1 0 = Partial_tree.To_parent);
  checkb "root port 0 resolved" true (Partial_tree.port view 0 0 = Partial_tree.Child 1);
  checkb "root port 1 dangling" true (Partial_tree.port view 0 1 = Partial_tree.Dangling);
  checki "dangling total" 3 (Partial_tree.num_dangling view);
  checki "edge events" 1 (Env.edge_events env);
  Partial_tree.check_invariants view

let test_two_robots_same_dangling () =
  let env = Env.create (small ()) ~k:2 in
  let view = Env.view env in
  Env.apply env [| Env.via 0; Env.via 0 |];
  checki "both at 1" 1 (Env.position env 0);
  checki "both at 1 (bis)" 1 (Env.position env 1);
  checki "explored" 2 (Partial_tree.num_explored view);
  checki "one edge event" 1 (Env.edge_events env);
  Partial_tree.check_invariants view

let test_up_event_counted_once () =
  let env = Env.create (small ()) ~k:1 in
  Env.apply env [| Env.via 0 |];
  Env.apply env [| Env.up |];
  checki "down+up events" 2 (Env.edge_events env);
  Env.apply env [| Env.via 0 |];
  Env.apply env [| Env.up |];
  checki "revisits are free" 2 (Env.edge_events env)

let test_metrics_moves () =
  let env = Env.create (small ()) ~k:2 in
  Env.apply env [| Env.via 0; Env.stay |];
  Env.apply env [| Env.up; Env.via 1 |];
  checki "total moves" 3 (Env.moves_total env);
  checki "robot 0 moves" 2 (Env.moves_of_robot env 0);
  checki "robot 1 moves" 1 (Env.moves_of_robot env 1);
  checki "rounds" 2 (Env.round env)

(* ---- masks (Section 4.2) ---- *)

let test_mask_pins_robot () =
  let mask ~round:_ ~robot = robot <> 0 in
  let env = Env.create ~fault:(Env.mask_hook mask) (small ()) ~k:2 in
  checkb "robot 0 blocked" false (Env.allowed env 0);
  checkb "robot 1 allowed" true (Env.allowed env 1);
  Env.apply env [| Env.via 0; Env.via 1 |];
  checki "robot 0 pinned" 0 (Env.position env 0);
  checki "robot 1 moved" 2 (Env.position env 1)

let test_mask_round_dependent () =
  let mask ~round ~robot:_ = round mod 2 = 1 in
  let env = Env.create ~fault:(Env.mask_hook mask) (small ()) ~k:1 in
  Env.apply env [| Env.via 0 |];
  checki "even round blocked" 0 (Env.position env 0);
  Env.apply env [| Env.via 0 |];
  checki "odd round moves" 1 (Env.position env 0)

(* ---- partial tree direct exercises ---- *)

let test_partial_tree_queries_unexplored () =
  let env = Env.create (small ()) ~k:1 in
  let view = Env.view env in
  checkb "ports of unexplored" true
    (raises_invalid (fun () -> ignore (Partial_tree.num_ports view 3)))

let test_min_open_depth_progression () =
  let env = Env.create (Tree_gen.path 5) ~k:1 in
  let view = Env.view env in
  checkb "starts at 0" true (Partial_tree.min_open_depth view = Some 0);
  Env.apply env [| Env.via 0 |];
  checkb "moves to 1" true (Partial_tree.min_open_depth view = Some 1);
  checkb "open nodes at min depth" true (Partial_tree.open_nodes_at_min_depth view = [ 1 ])

let test_ports_from_root () =
  let env = Env.create (small ()) ~k:1 in
  let view = Env.view env in
  Env.apply env [| Env.via 0 |];
  Env.apply env [| Env.via 1 |];
  (* robot is now at node 3 (first child of 1) *)
  checkb "path root->3" true (Partial_tree.ports_from_root view 3 = [ 0; 1 ]);
  checkb "is_ancestor in view" true (Partial_tree.is_ancestor view 1 3);
  checkb "not ancestor" false (Partial_tree.is_ancestor view 3 1)

let test_subtree_open () =
  let env = Env.create (small ()) ~k:1 in
  let view = Env.view env in
  Env.apply env [| Env.via 0 |];
  checkb "whole tree open" true (Partial_tree.subtree_open view 0);
  checkb "subtree of 1 open" true (Partial_tree.subtree_open view 1)

(* Random exploration keeps the incremental bookkeeping consistent. *)
let prop_invariants_under_random_walk =
  QCheck.Test.make ~name:"partial-tree invariants under random walks" ~count:50
    QCheck.(pair (int_range 2 120) (int_range 1 5))
    (fun (n, k) ->
      let r = Rng.create (n * 31 + k) in
      let parents = Array.init n (fun v -> if v = 0 then -1 else Rng.int r v) in
      let tree = Tree.of_parents parents in
      let env = Env.create tree ~k in
      let view = Env.view env in
      for _ = 1 to 200 do
        let moves =
          Array.init k (fun i ->
              let pos = Env.position env i in
              let nports = Partial_tree.num_ports view pos in
              if nports = 0 then Env.stay else Env.via (Rng.int r nports))
        in
        Env.apply env moves
      done;
      Partial_tree.check_invariants view;
      true)

let prop_edge_events_bounded =
  QCheck.Test.make ~name:"edge events never exceed 2(n-1)" ~count:50
    QCheck.(int_range 2 100)
    (fun n ->
      let r = Rng.create (n * 7) in
      let parents = Array.init n (fun v -> if v = 0 then -1 else Rng.int r v) in
      let tree = Tree.of_parents parents in
      let env = Env.create tree ~k:3 in
      let view = Env.view env in
      for _ = 1 to 300 do
        let moves =
          Array.init 3 (fun i ->
              let pos = Env.position env i in
              let nports = Partial_tree.num_ports view pos in
              if nports = 0 then Env.stay else Env.via (Rng.int r nports))
        in
        Env.apply env moves
      done;
      Env.edge_events env <= 2 * (n - 1))

let prop_positions_always_explored =
  QCheck.Test.make ~name:"robot positions are always explored nodes" ~count:40
    QCheck.(pair (int_range 2 120) (int_range 1 5))
    (fun (n, k) ->
      let r = Rng.create ((n * 41) + k) in
      let parents = Array.init n (fun v -> if v = 0 then -1 else Rng.int r v) in
      let env = Env.create (Tree.of_parents parents) ~k in
      let view = Env.view env in
      let ok = ref true in
      for _ = 1 to 150 do
        let moves =
          Array.init k (fun i ->
              let pos = Env.position env i in
              let nports = Partial_tree.num_ports view pos in
              if nports = 0 then Env.stay else Env.via (Rng.int r nports))
        in
        Env.apply env moves;
        Array.iter
          (fun p -> if not (Partial_tree.is_explored view p) then ok := false)
          (Env.positions env)
      done;
      !ok)

(* ---- whiteboards ---- *)

let test_whiteboard_partition_descending () =
  let wb = Whiteboard.create ~hidden_n:4 in
  Whiteboard.init_node wb 1 ~num_ports:4 ~is_root:false;
  checkb "first" true (Whiteboard.partition wb 1 = Some 3);
  checkb "second" true (Whiteboard.partition wb 1 = Some 2);
  checkb "third" true (Whiteboard.partition wb 1 = Some 1);
  checkb "exhausted (port 0 is the parent)" true (Whiteboard.partition wb 1 = None);
  checkb "all dispatched" true (Whiteboard.all_dispatched wb 1)

let test_whiteboard_root_partition () =
  let wb = Whiteboard.create ~hidden_n:4 in
  Whiteboard.init_node wb 0 ~num_ports:2 ~is_root:true;
  checkb "port 1" true (Whiteboard.partition wb 0 = Some 1);
  checkb "port 0 dispatchable at root" true (Whiteboard.partition wb 0 = Some 0);
  checkb "done" true (Whiteboard.partition wb 0 = None)

let test_whiteboard_mark_dispatched () =
  let wb = Whiteboard.create ~hidden_n:4 in
  Whiteboard.init_node wb 1 ~num_ports:4 ~is_root:false;
  Whiteboard.mark_dispatched wb 1 3;
  checkb "skips externally dispatched" true (Whiteboard.partition wb 1 = Some 2)

let test_whiteboard_finished () =
  let wb = Whiteboard.create ~hidden_n:4 in
  Whiteboard.init_node wb 1 ~num_ports:3 ~is_root:false;
  checkb "not finished" false (Whiteboard.all_finished wb 1);
  Whiteboard.mark_finished wb 1 1;
  Whiteboard.mark_finished wb 1 2;
  checkb "finished" true (Whiteboard.all_finished wb 1);
  checkb "list" true (Whiteboard.finished_ports wb 1 = [ 1; 2 ]);
  checkb "is_finished" true (Whiteboard.is_finished wb 1 2)

let test_whiteboard_init_idempotent () =
  let wb = Whiteboard.create ~hidden_n:2 in
  Whiteboard.init_node wb 0 ~num_ports:3 ~is_root:true;
  ignore (Whiteboard.partition wb 0);
  Whiteboard.init_node wb 0 ~num_ports:3 ~is_root:true;
  checkb "state preserved" true (Whiteboard.partition wb 0 = Some 1)

let test_whiteboard_uninitialized () =
  let wb = Whiteboard.create ~hidden_n:2 in
  checkb "partition requires init" true
    (raises_invalid (fun () -> ignore (Whiteboard.partition wb 0)))

(* ---- runner & trace ---- *)

let test_runner_round_limit () =
  let env = Env.create (small ()) ~k:1 in
  let algo =
    { Exec_env.select = (fun env -> Array.make (Env.k env) Env.stay);
      finished = (fun _ -> false) }
  in
  let r = Exec_env.run ~max_rounds:10 (Exec_env.of_env algo env) in
  checkb "hit limit" true r.hit_round_limit;
  checki "rounds" 10 r.rounds

(* A run's frames, kept the way the examples keep them: in a bounded
   ring of frames. *)
let record ring env = Ring.push ring (Trace.frame_of_env env)

let test_trace_records () =
  let env = Env.create (small ()) ~k:1 in
  let trace = Ring.create 4096 in
  record trace env;
  Env.apply env [| Env.via 0 |];
  record trace env;
  checki "frames" 2 (Ring.pushed trace);
  let frames = Ring.to_list trace in
  checki "first round" 0 (List.hd frames).Trace.round;
  checki "second explored" 2 (List.nth frames 1).Trace.explored

let test_trace_depth_timeline () =
  let env = Env.create (Tree_gen.path 6) ~k:2 in
  let trace = Ring.create 4096 in
  record trace env;
  let algo = Bfdn.Bfdn_algo.algo (Bfdn.Bfdn_algo.make env) in
  ignore (Exec_env.run ~on_round:(fun _ -> record trace env) (Exec_env.of_env algo env));
  let s = Trace.depth_timeline (Ring.to_list trace) env in
  checkb "has axis" true (String.length s > 0);
  checkb "mentions depth rows" true (String.contains s 'd')

let test_trace_render () =
  let env = Env.create (small ()) ~k:2 in
  let s = Trace.render_frame env in
  checkb "mentions robots" true (String.length s > 0 && String.contains s 'r')

let checks = Alcotest.(check string)

(* ---- golden renderings: the exact strings are part of the contract
   (EXAMPLES in the docs show them verbatim). ---- *)

let test_trace_render_golden_single () =
  let env = Env.create (Tree.of_parents [| -1 |]) ~k:1 in
  checks "single node"
    "round 0: 1 explored, 0 dangling\n0  <- robots [0]\n"
    (Trace.render_frame env)

let test_trace_render_golden_multi () =
  let env = Env.create (small ()) ~k:2 in
  checks "initial"
    "round 0: 1 explored, 2 dangling\n0 (+2?)  <- robots [0,1]\n"
    (Trace.render_frame env);
  Env.apply env [| Env.via 0; Env.via 1 |];
  checks "after one round"
    ("round 1: 3 explored, 3 dangling\n" ^ "0\n"
   ^ "  1 (+2?)  <- robots [0]\n" ^ "  2 (+1?)  <- robots [1]\n")
    (Trace.render_frame env)

let test_trace_timeline_golden_empty () =
  let env = Env.create (small ()) ~k:1 in
  checks "no frames" "(no frames)\n" (Trace.depth_timeline [] env)

let test_trace_timeline_golden_single_frame () =
  let env = Env.create (small ()) ~k:2 in
  let trace = Ring.create 4096 in
  record trace env;
  let legend =
    Bfdn_util.Ascii.legend
      [ ('.', "0"); (':', "1-2"); ('o', "3-5"); ('O', "6-10"); ('@', ">10") ]
  in
  checks "one frame, both robots at depth 0"
    ("robots per depth over time (1 frames):\n" ^ "d=0   :\n"
   ^ "      time ->\n" ^ legend ^ "\n")
    (Trace.depth_timeline (Ring.to_list trace) env)

let test_trace_timeline_golden_multi_depth () =
  (* One robot walking down a path: the diagonal front, one frame per
     depth. *)
  let env = Env.create (Tree_gen.path 3) ~k:1 in
  let trace = Ring.create 4096 in
  record trace env;
  Env.apply env [| Env.via 0 |];
  record trace env;
  (* Port 0 of a non-root node is the parent edge; the dangling child
     port of a path node is port 1. *)
  Env.apply env [| Env.via 1 |];
  record trace env;
  let legend =
    Bfdn_util.Ascii.legend
      [ ('.', "0"); (':', "1-2"); ('o', "3-5"); ('O', "6-10"); ('@', ">10") ]
  in
  checks "diagonal"
    ("robots per depth over time (3 frames):\n" ^ "d=0   :..\n"
   ^ "d=1   .:.\n" ^ "d=2   ..:\n" ^ "      time ->\n" ^ legend ^ "\n")
    (Trace.depth_timeline (Ring.to_list trace) env)

let test_trace_ring_bounded () =
  let env = Env.create (Tree_gen.path 6) ~k:2 in
  let trace = Ring.create 4 in
  let algo = Bfdn.Bfdn_algo.algo (Bfdn.Bfdn_algo.make env) in
  let r =
    Exec_env.run ~on_round:(fun _ -> record trace env) (Exec_env.of_env algo env)
  in
  checki "length counts every frame" r.Exec_env.rounds (Ring.pushed trace);
  checki "retained bounded" 4 (Ring.length trace);
  checki "dropped" (r.Exec_env.rounds - 4) (Ring.dropped trace);
  let fs = Ring.to_list trace in
  checki "frames returns retained" 4 (List.length fs);
  (* Newest [capacity] frames, chronological: the last one is the final
     round. *)
  checki "last frame is final round" r.Exec_env.rounds
    (List.nth fs 3).Trace.round

let test_trace_json_frame () =
  let env = Env.create (small ()) ~k:2 in
  Env.apply env [| Env.via 0; Env.via 1 |];
  checks "frame json"
    {|{"kind":"frame","round":1,"explored":3,"dangling":3,"positions":[1,2]}|}
    (Bfdn_obs.Json.to_string (Trace.json_of_frame (Trace.frame_of_env env)))

(* ---- growable flat storage (huge tier) ---- *)

(* A world larger than one node-store page starts with one page and
   grows a page at a time with the revealed prefix. A deep revealed path
   exercises per-node growth, pool growth and the by-depth bucket
   growth together; invariants must hold throughout. *)
let test_partial_tree_grows_above_threshold () =
  let hidden_n = 200_000 and m = 70_000 in
  let pt = Partial_tree.Internal.create ~hidden_n ~root:0 in
  checkb "starts below hidden_n" true (Partial_tree.id_bound pt < hidden_n);
  Partial_tree.Internal.reveal_root pt ~num_ports:1;
  for v = 1 to m do
    Partial_tree.Internal.reveal_child pt (v - 1)
      (if v - 1 = 0 then 0 else 1)
      v
      ~num_ports:(if v = m then 1 else 2)
  done;
  checki "explored count" (m + 1) (Partial_tree.num_explored pt);
  checki "depth of tip" m (Partial_tree.depth_of pt m);
  checkb "id_bound covers revealed ids" true (Partial_tree.id_bound pt > m);
  checkb "tip explored" true (Partial_tree.is_explored pt m);
  checkb "beyond bound unexplored" true
    (not (Partial_tree.is_explored pt (Partial_tree.id_bound pt)));
  checkb "complete" true (Partial_tree.complete pt);
  Partial_tree.check_invariants pt

let test_env_scratch_grows_with_view () =
  (* A lazy world of two pages: env + algo scratch are columns of its
     store, and the run must still fully explore. *)
  let lw =
    Bfdn_sim.Lazy_world.make ~family:"binary" ~n:70_000 ~depth_hint:20
      ~seed:0
  in
  let env = Env.of_world (Bfdn_sim.Lazy_world.world lw) ~k:64 in
  let algo = Bfdn.Bfdn_algo.(algo (make env)) in
  let r = Exec_env.run (Exec_env.of_env algo env) in
  checkb "explored" true r.Exec_env.explored;
  checkb "home" true r.Exec_env.at_root;
  checki "revealed all" (Bfdn_sim.Lazy_world.capacity lw)
    (Partial_tree.num_explored (Env.view env));
  Partial_tree.check_invariants (Env.view env)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let qc t = QCheck_alcotest.to_alcotest t in
  ( "sim",
    [
      tc "create initial" test_create_initial;
      tc "single node tree" test_single_node_tree;
      tc "up at root rejected" test_up_at_root_rejected;
      tc "bad port rejected" test_bad_port_rejected;
      tc "wrong arity rejected" test_wrong_arity_rejected;
      tc "move codes" test_move_codes;
      tc "bad codes rejected" test_bad_codes_rejected;
      tc "masked code not validated" test_masked_code_not_validated;
      tc "reactive blocker sees codes" test_reactive_blocker_sees_codes;
      tc "discovery" test_discovery;
      tc "two robots same dangling" test_two_robots_same_dangling;
      tc "up event counted once" test_up_event_counted_once;
      tc "metrics moves" test_metrics_moves;
      tc "mask pins robot" test_mask_pins_robot;
      tc "mask round dependent" test_mask_round_dependent;
      tc "unexplored queries rejected" test_partial_tree_queries_unexplored;
      tc "min open depth progression" test_min_open_depth_progression;
      tc "ports from root" test_ports_from_root;
      tc "subtree open" test_subtree_open;
      qc prop_invariants_under_random_walk;
      qc prop_edge_events_bounded;
      qc prop_positions_always_explored;
      tc "whiteboard partition descending" test_whiteboard_partition_descending;
      tc "whiteboard root partition" test_whiteboard_root_partition;
      tc "whiteboard mark dispatched" test_whiteboard_mark_dispatched;
      tc "whiteboard finished" test_whiteboard_finished;
      tc "whiteboard init idempotent" test_whiteboard_init_idempotent;
      tc "whiteboard uninitialized" test_whiteboard_uninitialized;
      tc "runner round limit" test_runner_round_limit;
      tc "trace records" test_trace_records;
      tc "trace depth timeline" test_trace_depth_timeline;
      tc "trace render" test_trace_render;
      tc "trace render golden single" test_trace_render_golden_single;
      tc "trace render golden multi" test_trace_render_golden_multi;
      tc "trace timeline golden empty" test_trace_timeline_golden_empty;
      tc "trace timeline golden single" test_trace_timeline_golden_single_frame;
      tc "trace timeline golden multi-depth" test_trace_timeline_golden_multi_depth;
      tc "trace ring bounded" test_trace_ring_bounded;
      tc "trace json frame" test_trace_json_frame;
      tc "partial tree grows above threshold"
        test_partial_tree_grows_above_threshold;
      tc "env scratch grows with view" test_env_scratch_grows_with_view;
    ] )
