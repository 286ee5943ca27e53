(* Equivalence pin: every synchronous tree algorithm of the registry, run
   through Scenario.run_on_tree on every ordered tree of 2 to 8 nodes at
   k in {1, 2, 3, 4, 8} (dfs at k = 1 only, bfdn under each anchor
   policy), folded into one digest. The fold takes every round's frame
   (round and positions) and each run's rounds, moves, edge events,
   explored and at-root flags, so it changes when any run makes one
   different move. A refactor of the round loop, of the move encoding or
   of an algorithm's selection must leave it unchanged; update it only
   for a deliberate, documented behaviour change. *)

module Scenario = Bfdn_scenario.Scenario
module Algo_registry = Bfdn_scenario.Algo_registry
module Param = Bfdn_scenario.Param
module Exec_env = Bfdn_sim.Exec_env
module Tree = Bfdn_trees.Tree
module Tree_gen = Bfdn_trees.Tree_gen

let pinned_digest = "2dbd3a25bc312ee0"
let pinned_runs = 28750

(* FNV-1a over whole ints, wrapping at OCaml's 63 bits (the offset basis
   cut to 63 bits). *)
let fnv_offset = 0x4bf29ce484222325
let fnv_prime = 0x100000001b3
let mix h x = (h lxor x) * fnv_prime

(* (algo, params, ks) for every tree algorithm of the registry. *)
let configs =
  let ks = [ 1; 2; 3; 4; 8 ] in
  List.concat_map
    (fun algo ->
      match algo with
      | "dfs" -> [ (algo, [], [ 1 ]) ]
      | "bfdn" ->
          List.map
            (fun policy -> (algo, [ ("policy", Param.String policy) ], ks))
            [ "least-loaded"; "first-open"; "random-open" ]
      | _ -> [ (algo, [], ks) ])
    Algo_registry.tree_names

let digest () =
  let h = ref fnv_offset and runs = ref 0 in
  let on_round (x : Exec_env.t) =
    let f = x.frame () in
    h := mix !h f.Bfdn_sim.Trace.round;
    Array.iter (fun p -> h := mix !h p) f.positions
  in
  let specs =
    List.concat_map
      (fun (algo, algo_params, ks) ->
        List.map
          (fun k ->
            Scenario.make ~algo ~algo_params ~k ~seed:3 (Scenario.world "random"))
          ks)
      configs
  in
  for n = 2 to 8 do
    Tree_gen.iter_ordered ~n (fun parents ->
        let tree = Tree.of_parents parents in
        List.iter
          (fun spec ->
            let r = (Scenario.run_on_tree ~on_round spec tree).Scenario.result in
            incr runs;
            List.iter
              (fun x -> h := mix !h x)
              [
                r.Exec_env.rounds; r.moves; r.edge_events;
                Bool.to_int r.explored; Bool.to_int r.at_root;
              ])
          specs)
  done;
  (Printf.sprintf "%016x" (!h land max_int), !runs)

let test_pinned () =
  let d, runs = digest () in
  Alcotest.(check int) "runs" pinned_runs runs;
  Alcotest.(check string) "digest of every run's rounds" pinned_digest d

let suite = ("equiv", [ Alcotest.test_case "ordered trees" `Quick test_pinned ])
