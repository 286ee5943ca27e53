(* SMOKE — one tiny engine batch per experiment (seconds, not minutes):
   `bench/main.exe --smoke`, also wired to `dune build @runtest-quick`.
   Every experiment family is exercised through the engine — tree-based
   ones as Scenario specs, the rest (regions, urn, grids, alloc, async) as
   pure thunks under Batch.map — so a regression in the pool, the seed
   sharding or any simulator layer trips CI before a full bench run. *)

open Bench_common

let gen family algo k s =
  Scenario.make ~algo ~k ~seed:s (Scenario.generated ~family ~n:120 ~depth_hint:10)

let explored_within_thm1 cell =
  let o = ok_outcome cell in
  let job, _ = cell in
  o.result.explored && o.result.at_root
  && float_of_int o.result.rounds <= thm1_bound_of o job.Scenario.k

let all_explored jobs =
  List.for_all (fun (cell : Scenario.t * _) -> (ok_outcome cell).result.explored)
    (run_jobs jobs)

let map_ok f xs =
  Array.for_all
    (function Ok b -> b | Error e -> failwith ("smoke task failed: " ^ e))
    (Batch.map ~workers:!workers f xs)

let checks : (string * (unit -> bool)) list =
  [
    ( "E1 regions",
      fun () ->
        map_ok
          (fun (rows, cols) ->
            let map =
              Bfdn.Regions.compute_map ~rows ~cols ~mode:Bfdn.Regions.Analytic
                ~k:16 ()
            in
            String.length (Bfdn.Regions.render map) > 0)
          [| (6, 18); (8, 24) |] );
    ( "E2 thm1",
      fun () ->
        List.for_all explored_within_thm1
          (run_jobs [ gen "random" "bfdn" 4 1; gen "comb" "bfdn" 16 2 ]) );
    ( "E3 urn",
      fun () ->
        map_ok
          (fun (k, delta) ->
            let steps =
              Bfdn.Urn_game.play
                (Bfdn.Urn_game.create ~delta ~k)
                Bfdn.Urn_game.adversary_greedy Bfdn.Urn_game.player_least_loaded
            in
            float_of_int steps <= Bfdn.Urn_game.bound ~delta ~k)
          [| (4, 4); (16, 16) |] );
    ( "E4 lemma2",
      fun () -> all_explored [ gen "comb" "bfdn" 8 3; gen "spider" "bfdn" 8 4 ] );
    ("E5 planner", fun () -> all_explored [ gen "random" "bfdn-wr" 8 5 ]);
    ( "E6 breakdowns",
      fun () ->
        map_ok
          (fun seed' ->
            let tree =
              Bfdn_trees.Tree_gen.of_family "random" ~rng:(Rng.create seed')
                ~n:100 ~depth_hint:8
            in
            let mask ~round:_ ~robot = robot < 4 in
            let env = Env.create ~fault:(Env.mask_hook mask) tree ~k:8 in
            let algo = Bfdn.Bfdn_algo.(algo (make env)) in
            let r = Exec_env.run (Exec_env.of_env algo env) in
            r.explored)
          [| 6; 7 |] );
    ( "E21 graphs direct",
      fun () ->
        map_ok
          (fun seed' ->
            let module Grid = Bfdn_graphs.Grid in
            let module Genv = Bfdn_graphs.Graph_env in
            let rng = Rng.create seed' in
            let spec =
              Grid.random_spec ~rng ~width:8 ~height:6 ~obstacle_count:2
                ~max_side:2
            in
            let grid = Grid.make spec in
            let env = Genv.create (Grid.graph grid) ~origin:(Grid.origin grid) ~k:4 in
            let r =
              Exec_env.run
                (Bfdn.Bfdn_graph.exec_env (Bfdn.Bfdn_graph.make env))
            in
            r.at_root)
          [| 8; 9 |] );
    ("E8 recursive", fun () -> all_explored [ gen "trap" "bfdn-rec" 8 10 ]);
    ("E9 cte", fun () -> all_explored [ gen "hidden-path" "cte" 8 11 ]);
    ( "E10 alloc",
      fun () ->
        map_ok
          (fun k ->
            let lengths = Bfdn_alloc.Alloc.adversarial_lengths ~k ~total:200 in
            let r = Bfdn_alloc.Alloc.simulate ~lengths () in
            float_of_int r.switches <= Bfdn_alloc.Alloc.switches_bound ~k)
          [| 4; 16 |] );
    ( "E11 adversaries",
      fun () ->
        List.for_all
          (fun cell ->
            let o = ok_outcome cell in
            o.result.explored && o.replay_rounds = Some o.result.rounds)
          (run_jobs
             (List.map
                (fun policy ->
                  Scenario.make ~algo:"bfdn" ~k:4 ~seed:12
                    (Scenario.adversarial ~policy ~capacity:100 ~depth_budget:12))
                Bfdn_scenario.World_registry.policy_names)) );
    ( "E12 overhead",
      fun () -> all_explored [ gen "random" "bfdn" 4 13; gen "random" "bfdn" 32 14 ] );
    ( "E13 async",
      fun () ->
        map_ok
          (fun speeds ->
            let module Aenv = Bfdn_sim.Async_env in
            let tree =
              Bfdn_trees.Tree_gen.of_family "random" ~rng:(Rng.create 15)
                ~n:80 ~depth_hint:6
            in
            let env = Aenv.create ~speeds tree ~k:4 in
            let decide = Bfdn.Bfdn_async.decide (Bfdn.Bfdn_async.make env) in
            ignore (Exec_env.run (Exec_env.of_async decide env));
            Aenv.fully_explored env)
          [| Array.make 4 1.0; [| 2.0; 1.0; 0.5; 0.25 |] |] );
    ( "E14 memory",
      fun () -> all_explored [ gen "caterpillar" "bfdn-wr" 8 16 ] );
    ( "A1 ablation",
      fun () ->
        all_explored [ gen "random" "bfdn" 8 17; gen "random" "bfdn-wr" 8 17 ] );
    ("E16 hotpath", fun () -> E_hotpath.smoke ());
    ("E17 faults", fun () -> E_faults.smoke ());
    ("E21 graph scenarios", fun () -> E_graph.smoke ());
    ("E22 seed batch", fun () -> E_batch.smoke ());
    ( "E15 engine determinism",
      fun () ->
        let js = List.init 8 (fun i -> gen "random" "bfdn" 4 (100 + i)) in
        let a = Batch.run ~workers:1 js and b = Batch.run ~workers:2 js in
        List.for_all2
          (fun (_, x) (_, y) ->
            match (x, y) with
            | Ok ox, Ok oy -> Scenario.equal_outcome ox oy
            | _ -> false)
          a b );
  ]

let run () =
  header "SMOKE" "one tiny engine batch per experiment";
  let failures = ref 0 in
  List.iter
    (fun (name, check) ->
      let ok = try check () with e -> Printf.printf "  %s raised %s\n" name (Printexc.to_string e); false in
      if not ok then incr failures;
      Printf.printf "  %-24s %s\n%!" name (if ok then "ok" else "FAIL"))
    checks;
  if !failures > 0 then begin
    Printf.printf "smoke: %d experiment batch(es) failed\n" !failures;
    exit 1
  end;
  Printf.printf "smoke: all %d experiment batches ok\n" (List.length checks)
