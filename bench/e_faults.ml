(* E17 — fault injection: crash-tolerant BFDN against seeded crash
   schedules. Two claims are quantified into BENCH_faults.json:

   1. Robustness: with [fault_tolerant=true] exploration completes (and
      the surviving fleet parks at the root) whenever at least one robot
      survives, across crash rates, restart policies, k and tree
      families — while plain BFDN under the same schedule spins to the
      round bound the moment a permanently crashed robot strands away
      from the root. The rounds column shows the graceful-degradation
      price of each crash rate.

   2. Overhead: the fault hook threaded through Env.apply must be free
      when faults are off. The disabled path adds one immutable-flag
      branch per robot, which cannot be A/B'd against the pre-fault
      code inside one binary. Its <= 1% budget was checked once, by an
      A/B of the pre-hook and post-hook builds on the development
      machine. The CI perf gate re-measures three E16 rows against 0.6x
      the committed BENCH_hotpath.json: a tripwire for a >40% slowdown,
      which cannot see a 1% cost. What this experiment measures, with
      the E16 probe methodology (interleaved per-segment walls,
      trimmed-quartile ratio), is the {e enabled-idle} price: a live
      hook whose plan never fires, i.e. the per-robot predicate cost
      paid whenever fault injection is switched on at all. Both sides run
      one comb spec through [Scenario.run]; the idle side adds a crash
      scheduled at round max_int / 2. *)

open Bench_common
module Fault_plan = Bfdn_faults.Fault_plan

let report_path = "BENCH_faults.json"

let families = [ ("comb", 30); ("random", 15) ]
let ks = [ 8; 64 ]
let nominal_n = 1000

(* (fault_tolerant, crash rate, restart delay) legs per (family, k).
   restart = -1: crashes are permanent. *)
let legs =
  [
    (true, 0.0, -1);
    (true, 0.1, -1);
    (true, 0.3, -1);
    (true, 0.3, 20);
    (false, 0.1, -1);
  ]

let fault_bindings ~rate ~restart =
  if rate = 0.0 then []
  else
    [
      ("rate", Param.Float rate);
      ("restart", Param.Int restart);
      ("window", Param.Int 40);
    ]

let spec ~family ~depth_hint ~k ~ft ~rate ~restart =
  Scenario.make ~algo:"bfdn"
    ~algo_params:(if ft then [ ("fault_tolerant", Param.Bool true) ] else [])
    ~k ~seed
    ~faults:(fault_bindings ~rate ~restart)
    (Scenario.generated ~family ~n:(sized nominal_n) ~depth_hint)

type row = {
  r_family : string;
  r_k : int;
  r_ft : bool;
  r_rate : float;
  r_restart : int;
  r_n : int;
  r_depth : int;
  r_rounds : int;
  r_explored : bool;
  r_hit_limit : bool;
  r_crashes : int;
  r_restarts : int;
  r_survivors : int;
  r_lost : int;
  r_revived : int;
}

let run_leg ~family ~depth_hint ~k (ft, rate, restart) =
  let sp = spec ~family ~depth_hint ~k ~ft ~rate ~restart in
  let reg = Metrics.create () in
  let outcome = Scenario.run ~probe:(Probe.of_metrics reg) sp in
  let result = outcome.Scenario.result in
  (* The schedule Scenario.run injected, for the schedule-side
     statistics. *)
  let plan = Scenario.fault_plan sp in
  let crashes, restarts, survivors =
    match plan with
    | None -> (0, 0, k)
    | Some p ->
        let c, r = Fault_plan.stats p ~rounds:result.Exec_env.rounds in
        (c, r, Fault_plan.survivors p)
  in
  {
    r_family = family;
    r_k = k;
    r_ft = ft;
    r_rate = rate;
    r_restart = restart;
    r_n = outcome.Scenario.n;
    r_depth = outcome.Scenario.depth;
    r_rounds = result.Exec_env.rounds;
    r_explored = result.Exec_env.explored;
    r_hit_limit = result.Exec_env.hit_round_limit;
    r_crashes = crashes;
    r_restarts = restarts;
    r_survivors = survivors;
    r_lost = counter reg "robots_lost";
    r_revived = counter reg "robots_revived";
  }

let sweep_rows () =
  List.concat_map
    (fun (family, depth_hint) ->
      List.concat_map
        (fun k -> List.map (run_leg ~family ~depth_hint ~k) legs)
        ks)
    families

let json_of_row r =
  Json.Obj
    [
      ("family", Json.String r.r_family);
      ("n", Json.Int r.r_n);
      ("depth", Json.Int r.r_depth);
      ("k", Json.Int r.r_k);
      ("fault_tolerant", Json.Bool r.r_ft);
      ("rate", Json.Float r.r_rate);
      ("restart", Json.Int r.r_restart);
      ("crashes", Json.Int r.r_crashes);
      ("restarts", Json.Int r.r_restarts);
      ("survivors", Json.Int r.r_survivors);
      ("rounds", Json.Int r.r_rounds);
      ("explored", Json.Bool r.r_explored);
      ("hit_round_limit", Json.Bool r.r_hit_limit);
      ("robots_lost", Json.Int r.r_lost);
      ("robots_revived", Json.Int r.r_revived);
    ]

(* ---- enabled-idle overhead ----

   Same estimator as E16's probe budget ([ab_overhead]): the two sides
   alternate per exploration, and each side's trimmed mean over its
   cleanest quartile of 16-round segment walls is compared. k = 512 so a
   round does enough work for the question to be meaningful. *)

let overhead_k = 512

(* An enabled hook that never fires: one crash scheduled far beyond any
   horizon this bench reaches. [Scenario.fault_plan] compiles it into a
   plan that is not [quiet], so the environment's hook stays enabled —
   the hot loop pays the compiled [fh_down] predicate per robot per
   round, exactly what any active crash plan costs while no crash is in
   its window. *)
let idle_faults =
  [ ("crashes", Param.String (Printf.sprintf "0@%d" (max_int / 2))) ]

let measure_overhead () =
  let side faults ~on_round =
    (Scenario.run ~on_round
       (Scenario.make ~algo:"bfdn" ~k:overhead_k ~seed ~faults
          (Scenario.generated ~family:"comb" ~n:(sized 4000) ~depth_hint:60)))
      .Scenario.result
  in
  let pairs = match !scale with Quick -> 3 | Normal -> 16 | Full -> 32 in
  match ab_overhead ~pairs [ [| side []; side idle_faults |] ] with
  | [ (warm, [| tp; ti |]) ] ->
      let pct = 100.0 *. ((ti /. Float.max 1e-12 tp) -. 1.0) in
      (pct, warm.Exec_env.rounds, tp, ti)
  | _ -> assert false

let run () =
  header "E17 (faults)"
    "crash-tolerant BFDN under seeded fault schedules + fault-hook budget";
  let rows = sweep_rows () in
  let t =
    Table.create
      ~caption:
        "crash-rate sweep (window=40): ft completes with survivors at root; \
         plain BFDN spins to the bound"
      [
        ("family", Table.Left); ("k", Table.Right); ("ft", Table.Left);
        ("rate", Table.Right); ("restart", Table.Right);
        ("crash/rst", Table.Right); ("lost/rev", Table.Right);
        ("rounds", Table.Right); ("explored", Table.Left);
        ("capped", Table.Left);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.r_family; Table.fint r.r_k; (if r.r_ft then "yes" else "no");
          Printf.sprintf "%.1f" r.r_rate;
          (if r.r_restart < 0 then "-" else string_of_int r.r_restart);
          Printf.sprintf "%d/%d" r.r_crashes r.r_restarts;
          Printf.sprintf "%d/%d" r.r_lost r.r_revived;
          Table.fint r.r_rounds;
          (if r.r_explored then "yes" else "NO");
          (if r.r_hit_limit then "YES" else "no");
        ])
    rows;
  Table.print t;
  let overhead_pct, orounds, tp, ti = measure_overhead () in
  Printf.printf
    "fault-hook enabled-idle overhead (vs disabled, comb k=%d, %d rounds): \
     %+.2f%%\n\
     disabled-path budget (<= 1%%): checked once by a pre/post-hook A/B; \
     `--perf-gate` is a >40%% tripwire against the committed \
     BENCH_hotpath.json\n"
    overhead_k orounds overhead_pct;
  Engine_report.write ~path:report_path
    (Json.Obj
       (Engine_report.meta ~seed ~workers:1
       @ [
           ("label", Json.String "E17 fault injection");
           ("scale", Json.String (scale_name ()));
           ("configs", Json.List (List.map json_of_row rows));
           ( "fault_hook_overhead",
             Json.Obj
               [
                 ("k", Json.Int overhead_k);
                 ("rounds", Json.Int orounds);
                 ("disabled_segment_wall", Json.Float tp);
                 ("idle_hook_segment_wall", Json.Float ti);
                 ("enabled_idle_overhead_pct", Json.Float overhead_pct);
                 ( "disabled_budget",
                   Json.String
                     "<= 1% vs the pre-hook build, checked once by a \
                      pre/post-hook A/B; --perf-gate is a >40% tripwire \
                      against committed BENCH_hotpath.json" );
               ] );
         ]));
  Printf.printf "report written to %s\n" report_path

(* CI tripwire for --smoke: a crash-tolerant run under a permanent crash
   completes deterministically with the loss detected, while plain BFDN
   under the same schedule hits its round cap; a crash-with-restart run
   revives the replacement robot. *)
let smoke () =
  let faults = [ ("crashes", Param.String "1@8") ] in
  let inst = Scenario.generated ~family:"comb" ~n:300 ~depth_hint:15 in
  let ft_spec =
    Scenario.make ~algo:"bfdn"
      ~algo_params:[ ("fault_tolerant", Param.Bool true) ]
      ~k:8 ~seed ~faults inst
  in
  let reg = Metrics.create () in
  let a = Scenario.run ~probe:(Probe.of_metrics reg) ft_spec in
  let b = Scenario.run ft_spec in
  let plain =
    Scenario.run
      (Scenario.make ~algo:"bfdn" ~k:8 ~seed ~max_rounds:400 ~faults inst)
  in
  let restart =
    Scenario.run
      (Scenario.make ~algo:"bfdn"
         ~algo_params:[ ("fault_tolerant", Param.Bool true) ]
         ~k:8 ~seed
         ~faults:[ ("crashes", Param.String "1@8+30") ]
         inst)
  in
  a.Scenario.result.Exec_env.explored
  && (not a.Scenario.result.Exec_env.hit_round_limit)
  && Scenario.equal_outcome a b
  && counter reg "robots_lost" >= 1
  && plain.Scenario.result.Exec_env.hit_round_limit
  && restart.Scenario.result.Exec_env.explored
  && restart.Scenario.result.Exec_env.at_root
