(* E15 — the batch engine itself: the reference sweep runs once on one
   worker and once on the full pool, the two result lists must match
   job-for-job (the sharded-replay determinism contract), and the
   throughput numbers land in BENCH_engine.json for trend tracking. *)

open Bench_common
module Table = Bfdn_util.Table

let report_path = "BENCH_engine.json"

let jobs () =
  let gen = List.concat_map
      (fun family ->
        List.concat_map
          (fun k ->
            List.map
              (fun s ->
                Scenario.make ~algo:"bfdn" ~k ~seed:(seed + s)
                  (Scenario.generated ~family ~n:(sized 600) ~depth_hint:20))
              [ 0; 1 ])
          [ 4; 64 ])
      Bfdn_trees.Tree_gen.families
  in
  let baselines =
    List.concat_map
      (fun algo ->
        List.map
          (fun k ->
            Scenario.make ~algo ~k ~seed
              (Scenario.generated ~family:"random" ~n:(sized 600) ~depth_hint:20))
          [ 4; 64 ])
      [ "cte"; "offline"; "bfdn-wr" ]
  in
  gen @ baselines

let same_results a b =
  List.for_all2
    (fun (_, x) (_, y) ->
      match (x, y) with
      | Ok ox, Ok oy -> Scenario.equal_outcome ox oy
      | Error ex, Error ey -> ex = ey
      | _ -> false)
    a b

let run () =
  header "E15 (batch engine)"
    "deterministic sharded replay: 1 worker vs pool, plus throughput";
  let js = jobs () in
  let t0 = Batch.now () in
  let sequential = Batch.run ~workers:1 js in
  let t1 = Batch.now () in
  let shares = ref [||] in
  let parallel =
    Batch.run ~workers:!workers ~on_pool_stats:(fun s -> shares := s) js
  in
  let t2 = Batch.now () in
  let seq_wall = t1 -. t0 and par_wall = t2 -. t1 in
  let deterministic = same_results sequential parallel in
  let agg = Batch.aggregate parallel in
  let t =
    Table.create
      ~caption:"per-algorithm round distributions over the reference sweep"
      [
        ("algo", Table.Left); ("jobs", Table.Right); ("mean", Table.Right);
        ("p50", Table.Right); ("p95", Table.Right); ("max", Table.Right);
      ]
  in
  List.iter
    (fun (algo, (s : Bfdn_util.Stats.summary)) ->
      Table.add_row t
        [
          algo; Table.fint s.count; Table.ffloat ~decimals:1 s.mean;
          Table.ffloat ~decimals:0 s.p50; Table.ffloat ~decimals:0 s.p95;
          Table.ffloat ~decimals:0 s.max;
        ])
    agg.per_algo;
  Table.print t;
  Printf.printf
    "%d jobs, %d errors | sequential %.3fs (%.1f jobs/s) | %d worker(s) %.3fs\n\
     (%.1f jobs/s) | speedup %.2fx on %d core(s)\n"
    agg.jobs agg.errors seq_wall
    (float_of_int agg.jobs /. Float.max 1e-9 seq_wall)
    !workers par_wall
    (float_of_int agg.jobs /. Float.max 1e-9 par_wall)
    (seq_wall /. Float.max 1e-9 par_wall)
    (Domain.recommended_domain_count ());
  if Array.length !shares > 0 then
    Printf.printf "per-worker job counts: [%s]\n"
      (String.concat "; " (Array.to_list (Array.map string_of_int !shares)));
  Printf.printf "deterministic across worker counts: %s\n"
    (if deterministic then "yes" else "NO — ENGINE BUG");
  Engine_report.write ~path:report_path
    (Engine_report.of_sweep ~label:"E15 reference sweep" ~workers:!workers ~seed
       ~wall:par_wall ~sequential_wall:seq_wall parallel);
  Printf.printf "report written to %s\n" report_path;
  if not deterministic then exit 1
