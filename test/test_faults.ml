(* Tests for the fault-injection layer: plan predicates (pure, total,
   deterministic), heartbeat bookkeeping, the Env hook (crashed robots
   pinned, restarts teleported to the root), the Fault_spec schema, the
   crash-tolerant BFDN mode — and the two system-level contracts:
   determinism under faults (same spec + seed => bit-identical outcome
   and trace, on one engine worker or many) and the robustness property
   (whenever at least one robot survives, exploration completes). *)

module Fault_plan = Bfdn_faults.Fault_plan
module Heartbeat = Bfdn_faults.Heartbeat
module Injector = Bfdn_faults.Injector
module Fault_spec = Bfdn_scenario.Fault_spec
module Param = Bfdn_scenario.Param
module Scenario = Bfdn_scenario.Scenario
module Batch = Bfdn_engine.Batch
module Env = Bfdn_sim.Env
module Exec_env = Bfdn_sim.Exec_env
module Ring = Bfdn_obs.Sink.Ring
module Tree_gen = Bfdn_trees.Tree_gen
module Bfdn_algo = Bfdn.Bfdn_algo
module Rng = Bfdn_util.Rng
module Metrics = Bfdn_obs.Metrics
module Probe = Bfdn_obs.Probe

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---- Fault_plan ---- *)

let test_plan_none () =
  let p = Fault_plan.none ~k:4 in
  checkb "quiet" true (Fault_plan.quiet p);
  checki "all survive" 4 (Fault_plan.survivors p);
  for round = 0 to 50 do
    for robot = 0 to 3 do
      checkb "never down" false (Fault_plan.down p ~round ~robot);
      checkb "never restarts" false (Fault_plan.restarts_after p ~round ~robot);
      checkb "never drops" false (Fault_plan.drops_write p ~round ~robot)
    done
  done

let test_plan_windows () =
  (* robot 1 crashes at 10 forever; robot 2 crashes at 5, back after 3. *)
  let p = Fault_plan.make ~k:4 [ (1, 10, -1); (2, 5, 3) ] in
  checkb "not quiet" false (Fault_plan.quiet p);
  checkb "r1 up before crash" false (Fault_plan.down p ~round:9 ~robot:1);
  checkb "r1 down at crash" true (Fault_plan.down p ~round:10 ~robot:1);
  checkb "r1 down much later" true (Fault_plan.down p ~round:9999 ~robot:1);
  checkb "r2 down in window" true (Fault_plan.down p ~round:6 ~robot:2);
  checkb "r2 back after window" false (Fault_plan.down p ~round:8 ~robot:2);
  (* restart fires on exactly the last round of the crash window *)
  checkb "no restart mid-window" false
    (Fault_plan.restarts_after p ~round:6 ~robot:2);
  checkb "restart on last down round" true
    (Fault_plan.restarts_after p ~round:7 ~robot:2);
  checkb "no restart after" false
    (Fault_plan.restarts_after p ~round:8 ~robot:2);
  checkb "permanent crash never restarts" false
    (Fault_plan.restarts_after p ~round:9999 ~robot:1);
  (* survivors: robot 1 is gone for good, everyone else lives *)
  checki "survivors" 3 (Fault_plan.survivors p);
  let crashes, restarts = Fault_plan.stats p ~rounds:100 in
  checki "crashes within horizon" 2 crashes;
  checki "restarts within horizon" 1 restarts;
  let c0, r0 = Fault_plan.stats p ~rounds:4 in
  checki "no crash before round 5" 0 c0;
  checki "no restart before round 8" 0 r0;
  (* last entry wins on a duplicate robot *)
  let q = Fault_plan.make ~k:4 [ (1, 10, -1); (1, 20, -1) ] in
  checkb "first entry overridden" false (Fault_plan.down q ~round:15 ~robot:1);
  checkb "second entry live" true (Fault_plan.down q ~round:20 ~robot:1)

let test_plan_rejects () =
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "robot out of range" true
    (raises (fun () -> Fault_plan.make ~k:4 [ (4, 10, -1) ]));
  checkb "crash round 0" true
    (raises (fun () -> Fault_plan.make ~k:4 [ (1, 0, -1) ]));
  checkb "bad restart delay" true
    (raises (fun () -> Fault_plan.make ~k:4 [ (1, 5, -2) ]))

let test_plan_masks () =
  let base mask = Fault_plan.make ~mask ~k:6 [] in
  let p = base (Fault_plan.Rotating 3) in
  for round = 0 to 30 do
    for robot = 0 to 5 do
      checkb "rotating blocks (round+robot) mod m = 0"
        ((round + robot) mod 3 = 0)
        (Fault_plan.down p ~round ~robot)
    done
  done;
  let h = base Fault_plan.Half in
  checkb "lower half moves" false (Fault_plan.down h ~round:3 ~robot:2);
  checkb "upper half pinned" true (Fault_plan.down h ~round:3 ~robot:3);
  let s = base Fault_plan.Solo in
  checkb "robot 0 moves" false (Fault_plan.down s ~round:3 ~robot:0);
  checkb "others pinned" true (Fault_plan.down s ~round:3 ~robot:1);
  (* random mask: pure — the same slot always answers the same *)
  let r = Fault_plan.make ~mask:(Fault_plan.Random 0.5) ~seed:7 ~k:6 [] in
  let blocked = ref 0 in
  for round = 0 to 200 do
    for robot = 0 to 5 do
      let a = Fault_plan.down r ~round ~robot in
      checkb "pure coin" a (Fault_plan.down r ~round ~robot);
      if a then incr blocked
    done
  done;
  let total = 201 * 6 in
  checkb "coin is roughly fair" true
    (!blocked > total / 4 && !blocked < 3 * total / 4);
  checkb "p=0 never blocks" false
    (Fault_plan.down
       (Fault_plan.make ~mask:(Fault_plan.Random 0.0) ~seed:7 ~k:6 [])
       ~round:5 ~robot:0);
  checkb "p=1 always blocks" true
    (Fault_plan.down
       (Fault_plan.make ~mask:(Fault_plan.Random 1.0) ~seed:7 ~k:6 [])
       ~round:5 ~robot:0)

let test_plan_drops () =
  let p = Fault_plan.make ~drop_writes:0.5 ~seed:11 ~k:4 [] in
  let dropped = ref 0 in
  for round = 0 to 400 do
    for robot = 0 to 3 do
      let a = Fault_plan.drops_write p ~round ~robot in
      checkb "pure drop coin" a (Fault_plan.drops_write p ~round ~robot);
      if a then incr dropped
    done
  done;
  let total = 401 * 4 in
  checkb "drop coin roughly fair" true
    (!dropped > total / 4 && !dropped < 3 * total / 4)

let test_plan_random_deterministic () =
  let mk () = Fault_plan.random ~rng:(Rng.create 42) ~k:16 ~rate:0.4
      ~window:30 ~restart:10 ?drop_writes:None ?mask:None ()
  in
  checkb "same rng state, same plan" true (Fault_plan.equal (mk ()) (mk ()));
  let none =
    Fault_plan.random ~rng:(Rng.create 42) ~k:16 ~rate:0.0 ~window:30
      ~restart:(-1) ?drop_writes:None ?mask:None ()
  in
  checkb "rate 0 crashes nobody" true (Fault_plan.quiet none);
  let all =
    Fault_plan.random ~rng:(Rng.create 42) ~k:16 ~rate:1.0 ~window:30
      ~restart:(-1) ?drop_writes:None ?mask:None ()
  in
  checki "rate 1 crashes everybody for good" 0 (Fault_plan.survivors all);
  let restarted =
    Fault_plan.random ~rng:(Rng.create 42) ~k:16 ~rate:1.0 ~window:30
      ~restart:5 ?drop_writes:None ?mask:None ()
  in
  checki "restarting crashes leave all survivors" 16
    (Fault_plan.survivors restarted)

(* ---- Heartbeat ---- *)

let test_heartbeat () =
  let hb = Heartbeat.create ~k:3 () in
  checki "initial last_seen" 0 (Heartbeat.last_seen hb 1);
  Heartbeat.beat hb ~robot:1 ~round:5;
  checki "beat recorded" 5 (Heartbeat.last_seen hb 1);
  checki "missed counts from last beat" 4 (Heartbeat.missed hb ~robot:1 ~round:9);
  checkb "fresh within window" false
    (Heartbeat.stale hb ~robot:1 ~round:9 ~after:4);
  checkb "stale past window" true
    (Heartbeat.stale hb ~robot:1 ~round:10 ~after:4);
  (* a dropped write leaves last_seen untouched *)
  let lossy =
    Heartbeat.create ~drop:(fun ~round ~robot:_ -> round = 7) ~k:3 ()
  in
  Heartbeat.beat lossy ~robot:0 ~round:6;
  Heartbeat.beat lossy ~robot:0 ~round:7;
  checki "dropped beat is lost" 6 (Heartbeat.last_seen lossy 0)

(* ---- Env hook: pinning and restart teleports ---- *)

let test_env_pins_and_restarts () =
  let tree = Tree_gen.of_family "comb" ~rng:(Rng.create 3) ~n:80 ~depth_hint:8 in
  (* robot 1 crashes at round 2 and comes back 3 rounds later *)
  let plan = Fault_plan.make ~k:2 [ (1, 2, 3) ] in
  let env = Env.create tree ~k:2 ~fault:(Injector.hook plan) in
  let t = Bfdn_algo.make env in
  let algo = Bfdn_algo.algo t in
  let seen_pinned = ref false in
  let start_of_crash_pos = ref (-1) in
  for _ = 1 to 6 do
    let round = Env.round env in
    let pos_before = Env.position env 1 in
    Env.apply env (algo.Exec_env.select env);
    if round >= 2 && round < 4 then begin
      (* crashed: not allowed, and pinned (the window closes with the
         round-4 restart teleport, checked below) *)
      checkb "crashed robot not allowed" false (Env.allowed env 1);
      if round = 2 then start_of_crash_pos := pos_before;
      if round < 4 then checki "crashed robot pinned" !start_of_crash_pos
          (Env.position env 1);
      seen_pinned := true
    end
  done;
  checkb "crash window was exercised" true !seen_pinned;
  (* after round 4's apply the replacement robot stands at the root *)
  checkb "past the window" true (Env.round env > 4);
  checki "restart counted" 1 (Env.restarts env);
  (* run to completion: the restart must not break exploration *)
  let r = Exec_env.run (Exec_env.of_env algo env) in
  checkb "explores after restart" true r.Exec_env.explored

(* ---- Fault_spec ---- *)

let test_spec_validate () =
  let ok bindings = Result.is_ok (Fault_spec.validate ?k:(Some 8) bindings) in
  checkb "empty ok" true (ok []);
  checkb "explicit ok" true (ok [ ("crashes", Param.String "1@8,3@20+25") ]);
  checkb "rate ok" true (ok [ ("rate", Param.Float 0.3) ]);
  checkb "bad entry" false (ok [ ("crashes", Param.String "nope") ]);
  checkb "robot out of range" false (ok [ ("crashes", Param.String "8@5") ]);
  checkb "crashes and rate exclusive" false
    (ok [ ("crashes", Param.String "1@8"); ("rate", Param.Float 0.2) ]);
  checkb "bad mask" false (ok [ ("mask", Param.String "sideways") ]);
  checkb "unknown key" false (ok [ ("crash", Param.String "1@8") ])

let test_spec_plan () =
  let rng () = Rng.split (Rng.create 99) 2 in
  checkb "inactive bindings compile to None" true
    (Fault_spec.plan ~rng:(rng ()) ~k:8 [] = None);
  checkb "all-default bindings are inactive" true
    (Fault_spec.plan ~rng:(rng ()) ~k:8 [ ("rate", Param.Float 0.0) ] = None);
  (match
     Fault_spec.plan ~rng:(rng ()) ~k:8
       [ ("crashes", Param.String "1@8,3@20+25") ]
   with
  | None -> Alcotest.fail "explicit crashes must compile"
  | Some p ->
      checkb "robot 1 down from 8" true (Fault_plan.down p ~round:8 ~robot:1);
      checkb "robot 3 restarts after 25" true
        (Fault_plan.restarts_after p ~round:44 ~robot:3);
      checki "survivors" 7 (Fault_plan.survivors p));
  (* the same bindings + the same stream always give the same plan *)
  let compile () =
    Option.get
      (Fault_spec.plan ~rng:(rng ()) ~k:8
         [ ("rate", Param.Float 0.5); ("window", Param.Int 20) ])
  in
  checkb "random mode deterministic in the stream" true
    (Fault_plan.equal (compile ()) (compile ()))

(* ---- crash-tolerant BFDN ---- *)

let ft_spec ?(algo_params = []) ?max_rounds ~faults ~k ~seed () =
  Scenario.make ~algo:"bfdn"
    ~algo_params:(("fault_tolerant", Param.Bool true) :: algo_params)
    ~k ~seed ?max_rounds ~faults
    (Scenario.generated ~family:"comb" ~n:300 ~depth_hint:15)

let test_ft_recovers () =
  let reg = Metrics.create () in
  let o =
    Scenario.run ~probe:(Probe.of_metrics reg)
      (ft_spec ~faults:[ ("crashes", Param.String "1@8,3@20+25") ] ~k:8
         ~seed:20230619 ())
  in
  let cval name =
    match Metrics.find_counter reg name with
    | Some c -> Metrics.value c
    | None -> 0
  in
  checkb "explored" true o.Scenario.result.Exec_env.explored;
  checkb "no round-limit bailout" false o.Scenario.result.Exec_env.hit_round_limit;
  checki "both crashes declared" 2 (cval "robots_lost");
  checki "the restarted robot revived" 1 (cval "robots_revived");
  checkb "latency histogram fed" true
    (Metrics.find_histogram reg "detect_latency_rounds" <> None)

let test_plain_bfdn_strands () =
  (* same schedule, fault tolerance off: the crashed robot never reports
     home, so the run spins to its cap *)
  let spec =
    Scenario.make ~algo:"bfdn" ~k:8 ~seed:20230619 ~max_rounds:400
      ~faults:[ ("crashes", Param.String "1@8") ]
      (Scenario.generated ~family:"comb" ~n:300 ~depth_hint:15)
  in
  let o = Scenario.run spec in
  checkb "hits the cap" true o.Scenario.result.Exec_env.hit_round_limit

let test_ft_under_write_drops () =
  (* lossy whiteboard: detection is delayed and false positives are
     possible (a survivor's silence), but the run must still finish —
     revival on the next surviving beat un-buries false positives *)
  let o =
    Scenario.run
      (ft_spec
         ~faults:
           [ ("crashes", Param.String "2@12"); ("drops", Param.Float 0.4) ]
         ~k:8 ~seed:5 ())
  in
  checkb "explored despite lossy heartbeats" true
    o.Scenario.result.Exec_env.explored;
  checkb "no cap" false o.Scenario.result.Exec_env.hit_round_limit

let test_ft_no_faults_is_plain_bfdn () =
  (* with no plan, the ft machinery must not change the exploration *)
  let plain =
    Scenario.run
      (Scenario.make ~algo:"bfdn" ~k:8 ~seed:17
         (Scenario.generated ~family:"random" ~n:250 ~depth_hint:12))
  in
  let ft =
    Scenario.run
      (Scenario.make ~algo:"bfdn"
         ~algo_params:[ ("fault_tolerant", Param.Bool true) ]
         ~k:8 ~seed:17
         (Scenario.generated ~family:"random" ~n:250 ~depth_hint:12))
  in
  checki "same rounds" plain.Scenario.result.Exec_env.rounds
    ft.Scenario.result.Exec_env.rounds;
  checki "same moves" plain.Scenario.result.Exec_env.moves
    ft.Scenario.result.Exec_env.moves

(* ---- determinism under faults ---- *)

let faulted_jobs () =
  List.concat_map
    (fun seed ->
      [
        ft_spec ~faults:[ ("rate", Param.Float 0.3); ("restart", Param.Int 15) ]
          ~k:6 ~seed ();
        ft_spec
          ~faults:[ ("crashes", Param.String "1@5,2@9+12") ]
          ~k:6 ~seed ();
      ])
    [ 1; 2; 3; 4 ]

let test_determinism_across_workers () =
  let jobs = faulted_jobs () in
  let seq = Batch.run ~workers:1 jobs in
  let par = Batch.run ~workers:2 jobs in
  List.iter2
    (fun (job, a) (_, b) ->
      match (a, b) with
      | Ok x, Ok y ->
          checkb
            (Printf.sprintf "1 vs 2 workers: %s" (Scenario.describe job))
            true (Scenario.equal_outcome x y)
      | _ -> Alcotest.fail (Scenario.describe job ^ ": job failed"))
    seq par

let test_trace_frames_identical () =
  let spec =
    ft_spec ~faults:[ ("rate", Param.Float 0.4); ("restart", Param.Int 10) ]
      ~k:6 ~seed:23 ()
  in
  let record () =
    let tr = Ring.create 100_000 in
    let o =
      Scenario.run
        ~on_round:(fun x -> Ring.push tr (x.Exec_env.frame ()))
        spec
    in
    (o, Ring.to_list tr)
  in
  let o1, f1 = record () in
  let o2, f2 = record () in
  checkb "outcomes identical" true (Scenario.equal_outcome o1 o2);
  checki "same frame count" (List.length f1) (List.length f2);
  checkb "frames identical" true (f1 = f2);
  checkb "no frames dropped" true (List.length f1 = o1.Scenario.result.Exec_env.rounds)

(* ---- robustness property ---- *)

(* Whenever at least one robot survives (robot 0 never crashes below),
   crash-tolerant BFDN terminates and covers every edge. The cap is for
   the degenerate fleet: with k - 1 crashes the survivor explores alone,
   so the k-robot termination bound does not apply. *)
let prop_survivor_implies_coverage =
  let open QCheck2.Gen in
  let gen =
    let* family = oneofl [ "comb"; "random"; "binary"; "random-deep" ] in
    let* n = int_range 40 250 in
    let* k = int_range 2 6 in
    let* seed = int_range 0 10_000 in
    let* crashes =
      list_size
        (int_range 0 (k - 1))
        (let* robot = int_range 1 (k - 1) in
         let* round = int_range 1 40 in
         let* restart = oneofl [ -1; -1; 5; 20 ] in
         return (robot, round, restart))
    in
    return (family, n, k, seed, crashes)
  in
  QCheck2.Test.make ~count:150 ~name:"a surviving robot covers the tree" gen
    (fun (family, n, k, seed, crashes) ->
      let entry (robot, round, restart) =
        Printf.sprintf "%d@%d%s" robot round
          (if restart < 0 then "" else Printf.sprintf "+%d" restart)
      in
      let faults =
        match crashes with
        | [] -> []
        | l -> [ ("crashes", Param.String (String.concat "," (List.map entry l))) ]
      in
      let spec =
        Scenario.make ~algo:"bfdn"
          ~algo_params:[ ("fault_tolerant", Param.Bool true) ]
          ~k ~seed ~max_rounds:100_000 ~faults
          (Scenario.generated ~family ~n ~depth_hint:12)
      in
      let o = Scenario.run spec in
      o.Scenario.result.Exec_env.explored
      && not o.Scenario.result.Exec_env.hit_round_limit)

(* [Fault_plan.allowed_slots] is k * A(M) computed from the plan alone:
   it must equal the slots an [Env] driven by the plan's hook reports as
   [allowed], round by round — the round indexing E6's watchdog reads. *)
let prop_allowed_slots_match_env =
  let open QCheck2.Gen in
  let gen =
    let* k = int_range 1 8 in
    let* mask =
      oneof
        [
          return Fault_plan.No_mask;
          map (fun m -> Fault_plan.Rotating m) (int_range 2 5);
          map (fun p -> Fault_plan.Random p) (float_range 0.0 1.0);
          return Fault_plan.Half;
          return Fault_plan.Solo;
        ]
    in
    let* crashes =
      list_size (int_range 0 k)
        (let* robot = int_range 0 (k - 1) in
         let* round = int_range 1 30 in
         let* restart = oneofl [ -1; 0; 1; 7 ] in
         return (robot, round, restart))
    in
    let* seed = int_range 0 10_000 in
    let* rounds = int_range 0 50 in
    return (k, mask, crashes, seed, rounds)
  in
  let tree = Tree_gen.of_family "comb" ~rng:(Rng.create 4) ~n:40 ~depth_hint:6 in
  QCheck2.Test.make ~count:300 ~name:"allowed_slots = Env.allowed summed" gen
    (fun (k, mask, crashes, seed, rounds) ->
      let plan = Fault_plan.make ~mask ~seed ~k crashes in
      let env = Env.create tree ~k ~fault:(Injector.hook plan) in
      let allowed = ref 0 in
      for _ = 1 to rounds do
        for i = 0 to k - 1 do
          if Env.allowed env i then incr allowed
        done;
        Env.apply env (Array.make k Env.stay)
      done;
      Fault_plan.allowed_slots plan ~rounds = !allowed)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "faults",
    [
      tc "plan: none is quiet" test_plan_none;
      tc "plan: crash windows" test_plan_windows;
      tc "plan: rejects bad entries" test_plan_rejects;
      tc "plan: masks" test_plan_masks;
      tc "plan: write drops" test_plan_drops;
      tc "plan: random mode deterministic" test_plan_random_deterministic;
      tc "heartbeat bookkeeping" test_heartbeat;
      tc "env pins crashed, teleports restarts" test_env_pins_and_restarts;
      tc "spec: validation" test_spec_validate;
      tc "spec: plan compilation" test_spec_plan;
      tc "ft bfdn recovers" test_ft_recovers;
      tc "plain bfdn strands" test_plain_bfdn_strands;
      tc "ft survives write drops" test_ft_under_write_drops;
      tc "ft without faults = plain bfdn" test_ft_no_faults_is_plain_bfdn;
      tc "determinism: 1 vs 2 workers" test_determinism_across_workers;
      tc "determinism: trace frames" test_trace_frames_identical;
      QCheck_alcotest.to_alcotest prop_survivor_implies_coverage;
      QCheck_alcotest.to_alcotest prop_allowed_slots_match_env;
    ] )
