(* Shared plumbing for the experiment harness: scaling knobs, run helpers
   and formatting shortcuts. *)

module Tree = Bfdn_trees.Tree
module Tree_gen = Bfdn_trees.Tree_gen
module Env = Bfdn_sim.Env
module Runner = Bfdn_sim.Runner
module Rng = Bfdn_util.Rng
module Table = Bfdn_util.Table
module Batch = Bfdn_engine.Batch
module Engine_report = Bfdn_engine.Report
module Metrics = Bfdn_obs.Metrics
module Probe = Bfdn_obs.Probe
module Param = Bfdn_scenario.Param
module Algo_registry = Bfdn_scenario.Algo_registry
module Scenario = Bfdn_scenario.Scenario

type scale = Quick | Normal | Full

let scale = ref Normal

(* Print per-phase timing breakdowns in experiments that support them
   (--profile). Off by default: the breakdown needs an enabled probe,
   and the headline numbers are always measured with the no-op one. *)
let profile = ref false

(* Worker count for engine-backed experiments (--jobs=N). The results are
   deterministic whatever this is set to; it only changes wall time. *)
let workers = ref (Domain.recommended_domain_count ())

(* Multiply a nominal instance size by the scale factor. *)
let sized n =
  match !scale with Quick -> max 50 (n / 10) | Normal -> n | Full -> n * 4

let seed = 20230619 (* PODC'23 *)

let header id claim =
  Printf.printf "\n=== %s — %s ===\n%!" id claim

let run_to_result algo env = Runner.run algo env

let run_bfdn tree k =
  let env = Env.create tree ~k in
  let t = Bfdn.Bfdn_algo.make env in
  (env, t, Runner.run (Bfdn.Bfdn_algo.algo t) env)

let run_planner tree k =
  let env = Env.create tree ~k in
  let t = Bfdn.Bfdn_planner.make env in
  (env, t, Runner.run (Bfdn.Bfdn_planner.algo t) env)

(* Registry-dispatched run: the generic path for experiments that only
   need the result, not a typed algorithm-state handle. *)
let run_algo ?params name tree k =
  let env = Env.create tree ~k in
  (env, Runner.run (Algo_registry.instantiate ?params name env) env)

let thm1_bound env k =
  Bfdn.Bounds.bfdn ~n:(Env.oracle_n env) ~k ~d:(Env.oracle_depth env)
    ~delta:(Env.oracle_max_degree env)

let offline_lb env k =
  Bfdn.Bounds.offline_lb ~n:(Env.oracle_n env) ~k ~d:(Env.oracle_depth env)

let describe env =
  Printf.sprintf "n=%d D=%d Δ=%d" (Env.oracle_n env) (Env.oracle_depth env)
    (Env.oracle_max_degree env)

(* ---- perf-gate result recording (--perf-gate) ----

   Gates record one row per re-measured config here instead of exiting
   on first failure: the driver prints every gate, then writes one
   machine-readable summary (perf-summary.json, plus a markdown table to
   $GITHUB_STEP_SUMMARY when CI provides it) and exits nonzero iff any
   row failed — so a regression report always shows the full picture,
   not just the first tripped gate. *)

type gate_row = {
  g_gate : string;  (* experiment id, e.g. "E16" *)
  g_name : string;  (* config label within the gate *)
  g_measured : float;
  g_baseline : float;  (* committed value (or budget) compared against *)
  g_ratio : float;  (* measured / baseline *)
  g_ok : bool;
}

let gate_rows : gate_row list ref = ref []

let record_gate ~gate ~name ~measured ~baseline ~ok =
  gate_rows :=
    {
      g_gate = gate;
      g_name = name;
      g_measured = measured;
      g_baseline = baseline;
      g_ratio = measured /. Float.max 1e-9 baseline;
      g_ok = ok;
    }
    :: !gate_rows

let gate_failures () =
  List.length (List.filter (fun r -> not r.g_ok) !gate_rows)

let gate_summary_json () =
  let module J = Bfdn_obs.Json in
  J.Obj
    [
      ("failures", J.Int (gate_failures ()));
      ( "rows",
        J.List
          (List.rev_map
             (fun r ->
               J.Obj
                 [
                   ("gate", J.String r.g_gate);
                   ("name", J.String r.g_name);
                   ("measured", J.Float r.g_measured);
                   ("baseline", J.Float r.g_baseline);
                   ("ratio", J.Float r.g_ratio);
                   ("ok", J.Bool r.g_ok);
                 ])
             !gate_rows) );
    ]

let gate_summary_markdown () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "## Perf gate\n\n";
  Buffer.add_string b "| gate | config | measured | baseline | ratio | status |\n";
  Buffer.add_string b "|---|---|---:|---:|---:|---|\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %s | %.1f | %.1f | %.2fx | %s |\n" r.g_gate
           r.g_name r.g_measured r.g_baseline r.g_ratio
           (if r.g_ok then "ok" else "**FAIL**")))
    (List.rev !gate_rows);
  Buffer.add_string b
    (Printf.sprintf "\n%d row(s), %d failure(s)\n" (List.length !gate_rows)
       (gate_failures ()));
  Buffer.contents b

(* ---- engine-backed batches ---- *)

let run_jobs jobs = Batch.run ~workers:!workers jobs

let ok_outcome (job, res) =
  match res with
  | Ok (o : Scenario.outcome) -> o
  | Error e ->
      failwith
        (Printf.sprintf "engine job %s failed: %s" (Scenario.describe job) e)

let family_of_job = Scenario.instance_label

(* Bound formulas from an outcome's frozen-instance statistics. *)
let thm1_bound_of (o : Scenario.outcome) k =
  Bfdn.Bounds.bfdn ~n:o.n ~k ~d:o.depth ~delta:o.max_degree

let offline_lb_of (o : Scenario.outcome) k =
  Bfdn.Bounds.offline_lb ~n:o.n ~k ~d:(max 1 o.depth)
