(* B1–B6 — Bechamel micro-benchmarks of the substrate and algorithms:
   wall-clock throughput of one full exploration per iteration. Direct
   loops: these time the round loop itself. *)

open Bechamel
open Toolkit
module Tree_gen = Bfdn_trees.Tree_gen
module Env = Bfdn_sim.Env
module Runner = Bfdn_sim.Runner
module Rng = Bfdn_util.Rng

let tree = lazy (Tree_gen.random_tree ~rng:(Rng.create 42) ~n:2000 ())
let deep = lazy (Tree_gen.comb ~spine:40 ~tooth_len:20)

let explore_bfdn () =
  let env = Env.create (Lazy.force tree) ~k:16 in
  let t = Bfdn.Bfdn_algo.make env in
  ignore (Runner.run (Bfdn.Bfdn_algo.algo t) env)

let explore_planner () =
  let env = Env.create (Lazy.force tree) ~k:16 in
  let t = Bfdn.Bfdn_planner.make env in
  ignore (Runner.run (Bfdn.Bfdn_planner.algo t) env)

let explore_cte () =
  let env = Env.create (Lazy.force tree) ~k:16 in
  ignore (Runner.run (Bfdn_baselines.Cte.make env) env)

let explore_rec () =
  let env = Env.create (Lazy.force deep) ~k:16 in
  let t = Bfdn.Bfdn_rec.make ~ell:2 env in
  ignore (Runner.run (Bfdn.Bfdn_rec.algo t) env)

let urn_game () =
  ignore
    (Bfdn.Urn_game.play
       (Bfdn.Urn_game.create ~delta:256 ~k:256)
       Bfdn.Urn_game.adversary_greedy Bfdn.Urn_game.player_least_loaded)

let gen_tree () =
  ignore (Tree_gen.random_tree ~rng:(Rng.create 7) ~n:2000 ())

let tests =
  Test.make_grouped ~name:"bfdn"
    [
      Test.make ~name:"explore/bfdn k=16 n=2000" (Staged.stage explore_bfdn);
      Test.make ~name:"explore/write-read k=16 n=2000" (Staged.stage explore_planner);
      Test.make ~name:"explore/cte k=16 n=2000" (Staged.stage explore_cte);
      Test.make ~name:"explore/bfdn_2 k=16 deep" (Staged.stage explore_rec);
      Test.make ~name:"urn-game k=256 greedy" (Staged.stage urn_game);
      Test.make ~name:"tree-gen random n=2000" (Staged.stage gen_tree);
    ]

let run () =
  Bench_common.header "B1-B6 (micro-benchmarks)"
    "wall-clock per full run (Bechamel, OLS on monotonic clock)";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.6) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  let table =
    Bfdn_util.Table.create
      [ ("benchmark", Bfdn_util.Table.Left); ("time/run", Bfdn_util.Table.Right);
        ("r²", Bfdn_util.Table.Right) ]
  in
  List.iter
    (fun (name, ols) ->
      let time =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) ->
            if t > 1e9 then Printf.sprintf "%.2f s" (t /. 1e9)
            else if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
            else Printf.sprintf "%.2f us" (t /. 1e3)
        | _ -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.3f" r
        | None -> "-"
      in
      Bfdn_util.Table.add_row table [ name; time; r2 ])
    rows;
  Bfdn_util.Table.print table
