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
      code inside one binary — its <= 1% budget is enforced by the CI
      perf gate against the committed BENCH_hotpath.json (measured
      pre-hook). What this experiment measures, with the E16 probe
      methodology (interleaved per-segment walls, trimmed-quartile
      ratio), is the {e enabled-idle} price: a live hook whose plan
      never fires, i.e. the per-robot predicate cost paid whenever
      fault injection is switched on at all. *)

open Bench_common
module Fault_plan = Bfdn_faults.Fault_plan
module Injector = Bfdn_faults.Injector
module Fault_spec = Bfdn_scenario.Fault_spec

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
  (* Re-derive the plan exactly as Scenario.run did (fault stream =
     split index 2 of the root seed) for the schedule-side statistics. *)
  let plan =
    Fault_spec.plan
      ~rng:(Rng.split (Rng.create seed) 2)
      ~k sp.Scenario.faults
  in
  let crashes, restarts, survivors =
    match plan with
    | None -> (0, 0, k)
    | Some p ->
        let c, r = Fault_plan.stats p ~rounds:result.Exec_env.rounds in
        (c, r, Fault_plan.survivors p)
  in
  let cval name =
    match Metrics.find_counter reg name with
    | Some c -> Metrics.value c
    | None -> 0
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
    r_lost = cval "robots_lost";
    r_revived = cval "robots_revived";
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

   Same estimator as E16's probe budget: alternate the two sides per
   exploration, collect per-[seg]-round segment walls through the
   runner's on_round hook (paid identically by both sides), and compare
   the trimmed means of each side's cleanest quartile. k = 512 so a
   round does enough work for the question to be meaningful. *)

let overhead_k = 512
let seg = 16

(* An enabled hook that never fires: one crash scheduled far beyond any
   horizon this bench reaches. Not [quiet], so Injector.hook keeps it
   enabled — the hot loop pays the compiled [fh_down] predicate per
   robot per round, exactly what any active crash plan costs while no
   crash is in its window. *)
let idle_plan = Fault_plan.make ~k:overhead_k [ (0, max_int / 2, -1) ]

let measure_overhead () =
  let tree =
    Tree_gen.of_family "comb" ~rng:(Rng.create seed) ~n:(sized 4000)
      ~depth_hint:60
  in
  (* A direct loop: this times the round loop itself. *)
  let explore ~fault out =
    let env = Env.create tree ~k:overhead_k ~fault in
    let a = Algo_registry.instantiate "bfdn" env in
    let last = ref (Bfdn_util.Clock.now ()) in
    let on_round _ =
      if Env.round env land (seg - 1) = 0 then begin
        let t = Bfdn_util.Clock.now () in
        out := (t -. !last) :: !out;
        last := t
      end
    in
    let r = Exec_env.run ~on_round (Exec_env.of_env a env) in
    if not r.Exec_env.explored then failwith "e_faults: overhead run incomplete";
    (r.Exec_env.rounds, r.Exec_env.edge_events)
  in
  let idle_hook = Injector.hook idle_plan in
  let plains = ref [] and idles = ref [] in
  let warm = explore ~fault:Env.fault_noop (ref []) in
  let pairs = match !scale with Quick -> 3 | Normal -> 16 | Full -> 32 in
  for it = 1 to pairs do
    let check out fault =
      if explore ~fault out <> warm then
        failwith "e_faults: idle fault hook perturbed the round loop"
    in
    if it land 1 = 0 then begin
      check plains Env.fault_noop;
      check idles idle_hook
    end
    else begin
      check idles idle_hook;
      check plains Env.fault_noop
    end
  done;
  let trimmed l =
    let a = Array.of_list l in
    Array.sort compare a;
    let keep = max 1 (Array.length a / 4) in
    let s = ref 0.0 in
    for i = 0 to keep - 1 do
      s := !s +. a.(i)
    done;
    !s /. float_of_int keep
  in
  let tp = trimmed !plains and ti = trimmed !idles in
  let rounds, _ = warm in
  (100.0 *. ((ti /. Float.max 1e-12 tp) -. 1.0), rounds, tp, ti)

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
     disabled-path budget (<= 1%%): enforced by `--perf-gate` against the \
     committed BENCH_hotpath.json\n"
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
                     "<= 1% vs pre-hook baselines; enforced by --perf-gate \
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
  let cval name =
    match Metrics.find_counter reg name with
    | Some c -> Metrics.value c
    | None -> 0
  in
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
  && cval "robots_lost" >= 1
  && plain.Scenario.result.Exec_env.hit_round_limit
  && restart.Scenario.result.Exec_env.explored
  && restart.Scenario.result.Exec_env.at_root
