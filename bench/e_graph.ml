(* E21 — graph worlds through the unified executor: every row here runs
   `Scenario.run` on a version-2 spec (grid / random-graph / layered +
   bfdn-graph), the exact path the CLI, the engine and the server
   execute, so the Proposition 9 claim is quantified on the shipping
   dispatch rather than a hand-wired loop (that loop is E7's job).

   Two claims go into BENCH_graph.json:

   1. Proposition 9: rounds <= 2n/k + D^2(min(log Δ, log k)+3) with
      n = #edges and D = the origin's eccentricity, on warehouse grids
      and general connected graphs, across k.

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
   re-measures the gate subset and fails below [gate_floor] of the
   committed rounds/s. *)

open Bench_common
module World_registry = Bfdn_scenario.World_registry

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

let ks = [ 1; 8; 64 ]

let spec ?(faults = []) ?max_rounds ~world ~params ~k () =
  Scenario.make ~algo:"bfdn-graph" ~k ~seed ?max_rounds ~faults
    (Scenario.world ~params world)

(* The spec carries node statistics in its outcome (n = nodes, depth =
   radius); Proposition 9 counts edges, so re-derive the instance from
   the root seed exactly as Scenario.run does (instance stream = split
   index 0) for the edge count. *)
let n_edges_of ~world ~params =
  match World_registry.world_source world params with
  | Ok (World_registry.Graph_world build) ->
      Bfdn_graphs.Graph.num_edges (fst (build (Rng.split (Rng.create seed) 0)))
  | Ok _ -> invalid_arg ("E21: not a graph world: " ^ world)
  | Error msg -> invalid_arg ("E21: " ^ msg)

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

let run_row ~world ~params ~label k =
  let sp = spec ~world ~params ~k () in
  let t0 = Batch.now () in
  let o = Scenario.run sp in
  let wall = Batch.now () -. t0 in
  let n_edges = n_edges_of ~world ~params in
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
    r_rounds = o.Scenario.result.Exec_env.rounds;
    r_explored = o.Scenario.result.Exec_env.explored;
    r_at_origin = o.Scenario.result.Exec_env.at_root;
    r_bound = bound;
    r_wall = wall;
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
  (* Schedule-side statistics, re-derived exactly as Scenario.run did
     (fault stream = split index 2 of the root seed). *)
  let plan =
    Bfdn_scenario.Fault_spec.plan
      ~rng:(Rng.split (Rng.create seed) 2)
      ~k sp.Scenario.faults
  in
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

(* Direct-loop cross-check (absorbed from the former E7): the same
   Proposition 9 claim measured on a hand-wired [Exec_env.run] loop
   over [Grid] instances, bypassing the Scenario executor. Keeping both
   tables in one experiment pins the unified dispatch to the raw loop —
   if they ever disagree the executor, not the algorithm, regressed. *)
let run_direct () =
  let module Grid = Bfdn_graphs.Grid in
  let module Genv = Bfdn_graphs.Graph_env in
  let t =
    Table.create
      ~caption:
        "direct Bfdn_graph.run loop (no Scenario dispatch); n = edges, D = \
         radius of the origin; lb = 2n/k"
      [
        ("grid", Table.Left); ("|E|", Table.Right); ("D", Table.Right);
        ("k", Table.Right); ("rounds", Table.Right); ("closed", Table.Right);
        ("bound", Table.Right); ("rounds/bound", Table.Right);
        ("rounds/lb", Table.Right); ("ok", Table.Left);
      ]
  in
  let grids =
    [
      ("20x20, 8 obst", 20, 20, 8);
      ("35x35, 20 obst", 35, 35, 20);
      ("60x25, 30 obst", 60, 25, 30);
      ("45x45, open", 45, 45, 0);
    ]
  in
  List.iter
    (fun (name, w, h, obstacles) ->
      let rng = Rng.create (seed + w + h) in
      let spec =
        Grid.random_spec ~rng ~width:w ~height:h ~obstacle_count:obstacles
          ~max_side:5
      in
      let grid = Grid.make spec in
      let g = Grid.graph grid in
      List.iter
        (fun k ->
          let env = Genv.create g ~origin:(Grid.origin grid) ~k in
          let r =
            Exec_env.run
              (Bfdn.Bfdn_graph.exec_env (Bfdn.Bfdn_graph.make env))
          in
          let bound =
            Bfdn.Bounds.bfdn_graph ~n_edges:(Genv.oracle_n_edges env) ~k
              ~d:(Genv.oracle_radius env) ~delta:(Genv.oracle_max_degree env)
          in
          let lb =
            2.0 *. float_of_int (Genv.oracle_n_edges env) /. float_of_int k
          in
          Table.add_row t
            [
              name;
              Table.fint (Genv.oracle_n_edges env);
              Table.fint (Genv.oracle_radius env);
              Table.fint k;
              Table.fint r.rounds;
              Table.fint (Genv.closed_edges env);
              Table.ffloat ~decimals:0 bound;
              Table.fratio (float_of_int r.rounds /. bound);
              Table.fratio (float_of_int r.rounds /. Float.max lb 1.0);
              Table.fbool
                (r.explored && r.at_root && float_of_int r.rounds <= bound);
            ])
        [ 1; 8; 64 ])
    grids;
  Table.print t

let run () =
  header "E21 (graph worlds)"
    "Proposition 9 + fault schedules through the unified Scenario executor";
  run_direct ();
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
      (* Warm once, then take the best of 3: the gate asks "can this
         machine still reach the committed rate", not "what is the
         mean". *)
      ignore (run_row ~world ~params ~label k);
      let best = ref 0.0 in
      for _ = 1 to 3 do
        let r = run_row ~world ~params ~label k in
        best :=
          Float.max !best (float_of_int r.r_rounds /. Float.max 1e-9 r.r_wall)
      done;
      check_gate ~gate:"E21"
        ~name:(Printf.sprintf "%s k=%d r/s" label k)
        !best
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
