(* E21 — graph worlds through the unified executor: every row here runs
   `Scenario.run` on a version-2 spec (grid / random-graph / layered +
   bfdn-graph), the exact path the CLI, the engine and the server
   execute, so the Proposition 9 claim (E7's) is quantified on the
   shipping dispatch.

   Two claims go into BENCH_graph.json:

   1. Proposition 9: rounds <= 2n/k + D^2(min(log Δ, log k)+3) with
      n = #edges and D = the origin's eccentricity, on warehouse grids
      (among them E7's random grids with rectangular obstacles up to
      45x45) and general connected graphs, across k. A single robot is
      a DFS: every k = 1 row must take exactly 2|E| rounds.

   2. Fault tolerance on graphs: under seeded crash/restart schedules
      (the E17 machinery, threaded through Graph_env) the run still
      covers the graph and parks the fleet at the origin — restarts
      teleport to the origin, where graph-BFDN re-anchors and discards
      stale route state. Permanent-crash legs (restart = -1) are capped:
      survivors still cover, but a robot that dies away from the origin
      never comes home, so without a cap the run spins to the default
      graph round limit; those rows honestly report home=NO and
      hit_round_limit=true.

   The per-row wall clock doubles as the perf-gate baseline: CI
   re-measures the gate subset with the same timer call and fails below
   [gate_floor] of the committed rounds/s. *)

open Bench_common

let report_path = "BENCH_graph.json"

(* (world, params, label) legs; params are version-2 spec bindings. *)
let worlds =
  [
    ( "grid",
      [
        ("height", Param.Int 14); ("obstacles", Param.Int 10);
        ("width", Param.Int 24);
      ],
      "grid 24x14" );
    ( "grid",
      [
        ("height", Param.Int 30); ("obstacles", Param.Int 24);
        ("width", Param.Int 40);
      ],
      "grid 40x30" );
    ("random-graph", [ ("extra_edges", Param.Int 150); ("n", Param.Int 500) ],
      "random-graph 500");
    ("layered", [ ("chords", Param.Int 40); ("layers", Param.Int 14);
        ("width", Param.Int 9) ], "layered 14x9");
  ]
  @ List.map
      (fun (w, h, obstacles) ->
        ( "grid",
          [
            ("height", Param.Int h); ("max_side", Param.Int 5);
            ("obstacles", Param.Int obstacles); ("width", Param.Int w);
          ],
          Printf.sprintf "grid %dx%d (%s)" w h
            (if obstacles = 0 then "open"
             else Printf.sprintf "%d obst" obstacles) ))
      (* E7's grid shapes *)
      [ (20, 20, 8); (35, 35, 20); (60, 25, 30); (45, 45, 0) ]

let ks = [ 1; 8; 64 ]

let spec ?(faults = []) ?max_rounds ~world ~params ~k () =
  Scenario.make ~algo:"bfdn-graph" ~k ~seed ?max_rounds ~faults
    (Scenario.world ~params world)

type row = {
  r_label : string;
  r_world : string;
  r_k : int;
  r_edges : int;
  r_radius : int;
  r_rounds : int;
  r_explored : bool;
  r_at_origin : bool;
  r_bound : float;
  r_wall : float;
}

(* The committed rows and the gate rows alike: the best run over 0.4 s,
   at least 3 runs. The best, not the mean: the gate asks whether this
   machine still reaches the committed rate. *)
let run_row ~world ~params ~label k =
  let sp = spec ~world ~params ~k () in
  let o, t =
    (repeat ~budget:0.4 ~min_reps:3 [| (fun () -> Scenario.run sp) |]).(0)
  in
  (* The outcome carries node statistics (n = nodes, depth = radius);
     Proposition 9 counts edges. Graph_env counts each traversed edge
     once, so a run that explored the graph traversed all |E| of them; a
     run that did not leaves |E| unknown, and the row has no bound. *)
  let result = o.Scenario.result in
  if not result.Exec_env.explored then
    failwith
      (Printf.sprintf "E21: %s k=%d did not explore, so |E| is unknown" label k);
  let n_edges = result.Exec_env.edge_events in
  if k = 1 && result.Exec_env.rounds <> 2 * n_edges then
    failwith
      (Printf.sprintf "E21: %s k=1 took %d rounds, not 2|E| = %d" label
         result.Exec_env.rounds (2 * n_edges));
  let bound =
    Bfdn.Bounds.bfdn_graph ~n_edges ~k ~d:o.Scenario.depth
      ~delta:o.Scenario.max_degree
  in
  {
    r_label = label;
    r_world = world;
    r_k = k;
    r_edges = n_edges;
    r_radius = o.Scenario.depth;
    r_rounds = result.Exec_env.rounds;
    r_explored = result.Exec_env.explored;
    r_at_origin = result.Exec_env.at_root;
    r_bound = bound;
    r_wall = t.best;
  }

(* ---- fault legs: crash/restart schedules on the larger grid ---- *)

(* (rate, restart, cap): permanent-crash legs carry an explicit round
   cap — coverage freezes within a few thousand rounds (the survivors
   are done), but the fleet can never terminate, so an uncapped run
   would spin to the ~6|E|(D+2) default limit at bench-hostile cost. *)
let fault_legs =
  [ (0.1, -1, Some 2500); (0.3, -1, Some 2500); (0.3, 20, None) ]

let fault_world, fault_params, _ = List.nth worlds 1

type fault_row = {
  f_rate : float;
  f_restart : int;
  f_k : int;
  f_rounds : int;
  f_explored : bool;
  f_at_origin : bool;
  f_crashes : int;
  f_restarts : int;
  f_capped : bool;
}

let run_fault_leg ~k (rate, restart, cap) =
  let faults =
    [
      ("rate", Param.Float rate); ("restart", Param.Int restart);
      ("window", Param.Int 40);
    ]
  in
  let sp =
    spec ~faults ?max_rounds:cap ~world:fault_world ~params:fault_params ~k ()
  in
  let o = Scenario.run sp in
  (* Schedule-side statistics of the schedule Scenario.run injected. *)
  let plan = Scenario.fault_plan sp in
  let crashes, restarts =
    match plan with
    | None -> (0, 0)
    | Some p ->
        Bfdn_faults.Fault_plan.stats p ~rounds:o.Scenario.result.Exec_env.rounds
  in
  {
    f_rate = rate;
    f_restart = restart;
    f_k = k;
    f_rounds = o.Scenario.result.Exec_env.rounds;
    f_explored = o.Scenario.result.Exec_env.explored;
    f_at_origin = o.Scenario.result.Exec_env.at_root;
    f_crashes = crashes;
    f_restarts = restarts;
    f_capped = o.Scenario.result.Exec_env.hit_round_limit;
  }

let json_of_row r =
  Json.Obj
    [
      ("label", Json.String r.r_label);
      ("world", Json.String r.r_world);
      ("k", Json.Int r.r_k);
      ("edges", Json.Int r.r_edges);
      ("radius", Json.Int r.r_radius);
      ("rounds", Json.Int r.r_rounds);
      ("explored", Json.Bool r.r_explored);
      ("at_origin", Json.Bool r.r_at_origin);
      ("bound", Json.Float r.r_bound);
      ("wall_seconds", Json.Float r.r_wall);
    ]

let json_of_fault_row f =
  Json.Obj
    [
      ("rate", Json.Float f.f_rate);
      ("restart", Json.Int f.f_restart);
      ("k", Json.Int f.f_k);
      ("rounds", Json.Int f.f_rounds);
      ("explored", Json.Bool f.f_explored);
      ("at_origin", Json.Bool f.f_at_origin);
      ("crashes", Json.Int f.f_crashes);
      ("restarts", Json.Int f.f_restarts);
      ("hit_round_limit", Json.Bool f.f_capped);
    ]

let run () =
  header "E21 (graph worlds)"
    "Proposition 9 + fault schedules through the unified Scenario executor";
  let rows =
    List.concat_map
      (fun (world, params, label) ->
        List.map (run_row ~world ~params ~label) ks)
      worlds
  in
  let t =
    Table.create
      ~caption:
        "every row is one Scenario.run of a version-2 spec; \
         bound = 2n/k + D^2(min(log Δ, log k)+3), n = #edges, D = radius"
      [
        ("world", Table.Left); ("|E|", Table.Right); ("D", Table.Right);
        ("k", Table.Right); ("rounds", Table.Right); ("bound", Table.Right);
        ("rounds/bound", Table.Right); ("ok", Table.Left);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.r_label; Table.fint r.r_edges; Table.fint r.r_radius;
          Table.fint r.r_k; Table.fint r.r_rounds;
          Table.ffloat ~decimals:0 r.r_bound;
          Table.fratio (float_of_int r.r_rounds /. r.r_bound);
          Table.fbool
            (r.r_explored && r.r_at_origin
            && float_of_int r.r_rounds <= r.r_bound);
        ])
    rows;
  Table.print t;
  let frows = List.concat_map (fun k -> List.map (run_fault_leg ~k) fault_legs) [ 8; 64 ] in
  let ft =
    Table.create
      ~caption:
        (Printf.sprintf
           "crash/restart schedules on the %s world (window=40): restarts \
            teleport to the origin, graph-BFDN re-anchors and still covers; \
            permanent crashes (restart=-) strand the dead robot, so those \
            capped rows cover but cannot come home"
           fault_world)
      [
        ("rate", Table.Right); ("restart", Table.Right); ("k", Table.Right);
        ("crash/rst", Table.Right); ("rounds", Table.Right);
        ("explored", Table.Left); ("home", Table.Left);
      ]
  in
  List.iter
    (fun f ->
      Table.add_row ft
        [
          Printf.sprintf "%.1f" f.f_rate;
          (if f.f_restart < 0 then "-" else string_of_int f.f_restart);
          Table.fint f.f_k;
          Printf.sprintf "%d/%d" f.f_crashes f.f_restarts;
          Table.fint f.f_rounds;
          (if f.f_explored then "yes" else "NO");
          (if f.f_at_origin then "yes"
           else if f.f_capped then "no (capped)"
           else "NO");
        ])
    frows;
  Table.print ft;
  Engine_report.write ~path:report_path
    (Json.Obj
       (Engine_report.meta ~seed ~workers:1
       @ [
           ("label", Json.String "E21 graph worlds via Scenario.run");
           ("scale", Json.String (scale_name ()));
           ("configs", Json.List (List.map json_of_row rows));
           ("fault_configs", Json.List (List.map json_of_fault_row frows));
         ]));
  Printf.printf "report written to %s\n" report_path

(* ---- perf gate ----

   Re-measure the gate subset and compare rounds/s against the committed
   report. The floor mirrors e_hotpath's: loose enough for machine-to-
   machine variance, tight enough to catch an accidental de-optimization
   of the graph apply path (e.g. the per-robot fault predicate growing
   work, or the settle phase going quadratic). *)

let gate_floor = 0.6

let gate_subset = [ ("grid 40x30", 8); ("random-graph 500", 8) ]

let perf_gate () =
  scale := Normal;
  header "PERF GATE (graph)"
    (Printf.sprintf "rounds/s >= %.2fx the committed %s" gate_floor
       report_path);
  List.iter
    (fun (label, k) ->
      let row member =
        committed report_path member
          ~where:[ ("label", Json.String label); ("k", Json.Int k) ]
      in
      let committed = row "rounds" /. Float.max 1e-9 (row "wall_seconds") in
      let world, params, _ = List.find (fun (_, _, l) -> l = label) worlds in
      let r = run_row ~world ~params ~label k in
      check_gate ~gate:"E21"
        ~name:(Printf.sprintf "%s k=%d r/s" label k)
        (float_of_int r.r_rounds /. Float.max 1e-9 r.r_wall)
        (Relative { committed; floor = gate_floor }))
    gate_subset

(* CI tripwire for --smoke: a tiny grid spec completes deterministically
   through Scenario.run, and the same grid under a crash/restart
   schedule still covers and comes home. *)
let smoke () =
  let params =
    [ ("height", Param.Int 6); ("obstacles", Param.Int 2);
      ("width", Param.Int 9) ]
  in
  let sp = spec ~world:"grid" ~params ~k:5 () in
  let a = Scenario.run sp in
  let b = Scenario.run sp in
  let faulty =
    Scenario.run
      (spec
         ~faults:
           [
             ("rate", Param.Float 0.2); ("restart", Param.Int 10);
             ("window", Param.Int 20);
           ]
         ~world:"grid" ~params ~k:5 ())
  in
  a.Scenario.result.Exec_env.explored
  && a.Scenario.result.Exec_env.at_root
  && (not a.Scenario.result.Exec_env.hit_round_limit)
  && Scenario.equal_outcome a b
  && faulty.Scenario.result.Exec_env.explored
  && faulty.Scenario.result.Exec_env.at_root
