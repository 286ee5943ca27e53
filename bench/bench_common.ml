(* Shared plumbing for the experiment harness: scaling knobs, the one way
   to run a scenario on a prepared tree, and the one way to read a
   committed report and check a perf gate against it. *)

module Tree = Bfdn_trees.Tree
module Tree_gen = Bfdn_trees.Tree_gen
module Env = Bfdn_sim.Env
module Exec_env = Bfdn_sim.Exec_env
module Rng = Bfdn_util.Rng
module Table = Bfdn_util.Table
module Batch = Bfdn_engine.Batch
module Engine_report = Bfdn_engine.Report
module Json = Bfdn_obs.Json
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

let scale_name () =
  match !scale with Quick -> "quick" | Normal -> "normal" | Full -> "full"

(* Run registry algorithm [algo] on a tree the experiment built itself,
   through [Scenario.run_on_tree] — the executor behind `explore run
   --tree-file`. Only the spec's algorithm, parameters, k and seed
   matter: the tree replaces its instance, which just has to validate. *)
let run_tree ?probe ?(params = []) algo tree k =
  Scenario.run_on_tree ?probe
    (Scenario.make ~algo ~algo_params:params ~k ~seed (Scenario.world "path"))
    tree

(* BFDN's Lemma 2 statistic on [tree]: the outcome, the largest
   per-depth reanchor count over depths [1, D-1] and the first depth
   that reaches it, read from the summary BFDN hands its probe once it
   finishes. *)
let run_bfdn_reanchors ?params tree k =
  let by_depth = ref [||] in
  let probe =
    Probe.make ~on_reanchor_summary:(fun ~total:_ ~by_depth:b -> by_depth := b) ()
  in
  let o = run_tree ~probe ?params "bfdn" tree k in
  let worst = ref 0 and at = ref 0 in
  Array.iteri
    (fun d c ->
      if d >= 1 && d < o.Scenario.depth && c > !worst then begin
        worst := c;
        at := d
      end)
    !by_depth;
  (o, !worst, !at)

(* Lemma 2's per-depth cap k (min(log k, log Δ) + 3) = urn-game bound + k. *)
let lemma2_cap ~delta ~k = Bfdn.Bounds.urn_game ~delta ~k +. float_of_int k

(* ---- perf-gate result recording (--perf-gate) ----

   Gates record one row per re-measured config here, through
   [check_gate], instead of exiting on first failure: main.ml runs
   every gate, then writes one machine-readable summary
   (perf-summary.json, plus a markdown table to $GITHUB_STEP_SUMMARY when
   CI provides it) and exits nonzero iff any row failed — so a
   regression report always shows the full picture, not just the first
   tripped gate. *)

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

(* A number from a committed BENCH_*.json report: [member] at the top
   level or, given [where], in the first row of [table] whose fields
   equal [where] ([table] defaults to "configs"; a single object counts
   as one row). Fails with [path] in the message. *)
let committed ?(table = "configs") ?where path member =
  let fail what = failwith (Printf.sprintf "%s: %s" path what) in
  let doc =
    match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Ok j -> j
    | Error msg -> fail msg
  in
  let scope =
    match where with
    | None -> doc
    | Some fields -> (
        let rows =
          match Json.member table doc with
          | Some (Json.List rows) -> rows
          | Some (Json.Obj _ as row) -> [ row ]
          | _ -> fail ("no " ^ table ^ " member")
        in
        let matches row =
          List.for_all (fun (f, v) -> Json.member f row = Some v) fields
        in
        match List.find_opt matches rows with
        | Some row -> row
        | None ->
            fail
              (Printf.sprintf "no %s row matching %s" table
                 (Json.to_string (Json.Obj fields))))
  in
  match Json.member member scope with
  | Some (Json.Float x) -> x
  | Some (Json.Int i) -> float_of_int i
  | _ -> fail ("no number " ^ member)

(* What a gate row asks of its measurement. *)
type bar =
  | Relative of { committed : float; floor : float }
      (** measured >= floor x the committed value *)
  | At_least of float  (** a fixed floor *)
  | At_most of float  (** a fixed budget *)

(* Check one gate row: record it for the summary and print one status
   line. The row's baseline is the committed value, floor or budget. *)
let check_gate ~gate ~name measured bar =
  let baseline, ok, rule =
    match bar with
    | Relative { committed; floor } ->
        ( committed,
          measured /. Float.max 1e-9 committed >= floor,
          Printf.sprintf ">= %.2fx committed" floor )
    | At_least floor -> (floor, measured >= floor, Printf.sprintf ">= %g" floor)
    | At_most budget ->
        (budget, measured <= budget, Printf.sprintf "<= %g" budget)
  in
  record_gate ~gate ~name ~measured ~baseline ~ok;
  Printf.printf "  %-4s %-40s %s %12.2f vs %12.2f (%.2fx; %s)\n%!" gate name
    (if ok then "ok  " else "FAIL")
    measured baseline
    (measured /. Float.max 1e-9 baseline)
    rule

let gate_failures () =
  List.length (List.filter (fun r -> not r.g_ok) !gate_rows)

let gate_summary_json () =
  Json.Obj
    [
      ("failures", Json.Int (gate_failures ()));
      ( "rows",
        Json.List
          (List.rev_map
             (fun r ->
               Json.Obj
                 [
                   ("gate", Json.String r.g_gate);
                   ("name", Json.String r.g_name);
                   ("measured", Json.Float r.g_measured);
                   ("baseline", Json.Float r.g_baseline);
                   ("ratio", Json.Float r.g_ratio);
                   ("ok", Json.Bool r.g_ok);
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
