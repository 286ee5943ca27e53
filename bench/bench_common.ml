(* Shared plumbing for the experiment harness: scaling knobs, the one way
   to run a registry algorithm on a tree the experiment built (through
   [Scenario.run_on_tree]: every tracked perf row runs through
   [Scenario], as a user's run does), the one way to time a tracked perf
   row (and its gate) and to estimate an A/B overhead, and the one way
   to read a committed report and check a perf gate against it. *)

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
module Scenario = Bfdn_scenario.Scenario

type scale = Quick | Normal | Full

let scale = ref Normal

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
   matter: the tree replaces its instance, which just has to validate.
   [on_round] sees the execution view after every round. *)
let run_tree ?probe ?on_round ?(params = []) algo tree k =
  Scenario.run_on_tree ?probe ?on_round
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

(* The value of counter [name] in [reg], 0 when it was never created. *)
let counter reg name =
  Option.fold ~none:0 ~some:Metrics.value (Metrics.find_counter reg name)

(* Lemma 2's per-depth cap k (min(log k, log Δ) + 3) = urn-game bound + k. *)
let lemma2_cap ~delta ~k = Bfdn.Bounds.urn_game ~delta ~k +. float_of_int k

(* ---- timing ----

   Every tracked perf row and its --perf-gate row time through [repeat]
   with the same arguments, and every A/B overhead row through
   [ab_overhead]. *)

module Clock = Bfdn_util.Clock

(* A side's wall time over the timed repetitions of {!repeat}. *)
type timing = { best : float; mean : float }

(* Call every side once untimed (the warm-up), then time repetitions,
   each calling every side once in the given order, until the timed calls
   total [budget] seconds and [min_reps] repetitions ran, or [max_reps]
   ran. Returns each side's last result and its timing. Runs are
   deterministic, so every repetition does the same work, and ambient
   load on a shared machine reaches both sides of an alternating pair
   alike. *)
let repeat ?(min_reps = 1) ?(max_reps = max_int) ~budget sides =
  let last = Array.map (fun side -> side ()) sides in
  let best = Array.make (Array.length sides) infinity in
  let total = Array.make (Array.length sides) 0.0 in
  let spent = ref 0.0 and reps = ref 0 in
  while (!spent < budget || !reps < min_reps) && !reps < max_reps do
    Array.iteri
      (fun i side ->
        let t0 = Clock.now () in
        last.(i) <- side ();
        let dt = Clock.now () -. t0 in
        best.(i) <- Float.min best.(i) dt;
        total.(i) <- total.(i) +. dt;
        spent := !spent +. dt)
      sides;
    incr reps
  done;
  Array.mapi
    (fun i r ->
      (r, { best = best.(i); mean = total.(i) /. float_of_int !reps }))
    last

(* Segment width of {!ab_overhead}, in rounds. Small enough that a
   segment (~0.4–1 ms at k = 512) can fall between bursts of competing
   load on a shared core; large enough that the per-segment clock reads
   (two per segment, paid identically by every side) are far below the
   effect being measured. Power of two: the round check is a single
   [land]. *)
let ab_segment = 16

(* The mean of the smallest quarter of [l] (at least one value). *)
let trimmed l =
  let a = Array.of_list l in
  Array.sort compare a;
  let keep = max 1 (Array.length a / 4) in
  let s = ref 0.0 in
  for i = 0 to keep - 1 do
    s := !s +. a.(i)
  done;
  !s /. float_of_int keep

(* One side of an A/B comparison: one whole exploration (world,
   algorithm, probe), which must hand [on_round] to the round loop. *)
type ab_side = on_round:(Exec_env.t -> unit) -> Exec_env.result

type ab_config = {
  sides : ab_side array;
  warm : Exec_env.result;
  inner : int;  (** explorations per side in one sample *)
  walls : float list ref array;  (** per side, its segment walls *)
  mutable turn : int;  (** explorations per side run so far *)
}

(* A/B overhead estimator. Each config (an array of sides) gets one
   warm-up exploration of side 0, which also sets how many explorations
   per side one sample holds: [sample] seconds' worth, at least one (the
   default). Then [pairs] times, one sample of every config in turn:
   configs are round-robined so each one's samples span the whole
   measurement window rather than one slice a single noise burst can
   cover. Within a config, every side runs once per exploration turn, so
   all sides share frequency state and ambient load, and the side order
   rotates every turn: GC pauses are phase-locked to the allocation
   cycle (every exploration allocates a fresh env) and would otherwise
   land in one side's slot. Every timed exploration must explore and
   reproduce the warm-up's rounds and edge events.

   Each exploration is sliced into [ab_segment]-round segment walls by
   its [on_round] hook, the clock starting at its first round so that
   building the environment and releasing it never land in a segment,
   and a side's estimate is the trimmed mean of its cleanest quartile of
   segments. Machine noise (a shared core with
   bursty competing load) is additive and heavy-tailed, so a full-sum
   ratio is dominated by whichever side the largest bursts landed on,
   and a 60 ms exploration virtually always absorbs a burst, so best-of,
   medians and trimmed sums over explorations all carry multi-percent
   variance. A ~0.5 ms segment fits between bursts; with hundreds of
   segments per side the cleanest quartile is burst-free on both sides.

   Returns per config the warm-up result and, per side, that trimmed
   mean segment wall. *)
let ab_overhead ?(sample = 0.0) ~pairs (configs : ab_side array list) =
  let explored (r : Exec_env.result) =
    if not r.explored then failwith "A/B overhead: instance not explored";
    r
  in
  let prepare sides =
    let t0 = Clock.now () in
    let warm = explored (sides.(0) ~on_round:ignore) in
    let est = Clock.now () -. t0 in
    {
      sides;
      warm;
      inner = max 1 (int_of_float (Float.ceil (sample /. Float.max 1e-6 est)));
      walls = Array.map (fun _ -> ref []) sides;
      turn = 0;
    }
  in
  let timed walls (side : ab_side) =
    (* [rounds] counts the rounds after the first. *)
    let rounds = ref (-1) and last = ref 0.0 in
    let on_round _ =
      incr rounds;
      if !rounds land (ab_segment - 1) = 0 then begin
        let t = Clock.now () in
        if !rounds > 0 then walls := (t -. !last) :: !walls;
        last := t
      end
    in
    explored (side ~on_round)
  in
  let cfgs = List.map prepare configs in
  for _ = 1 to pairs do
    List.iter
      (fun c ->
        let n = Array.length c.sides in
        for _ = 1 to c.inner do
          c.turn <- c.turn + 1;
          for j = 0 to n - 1 do
            let s = (c.turn + j) mod n in
            let r = timed c.walls.(s) c.sides.(s) in
            if r.rounds <> c.warm.rounds || r.edge_events <> c.warm.edge_events
            then failwith "A/B overhead: a side perturbed the round loop"
          done
        done)
      cfgs
  done;
  List.map (fun c -> (c.warm, Array.map (fun w -> trimmed !w) c.walls)) cfgs

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

(* A member of a committed BENCH_*.json report: [member] at the top
   level or, given [where], in the first row of [table] whose fields
   equal [where] ([table] defaults to "configs"; a single object counts
   as one row). Fails with [path] in the message. *)
let committed_member ?(table = "configs") ?where path member =
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
  | Some j -> j
  | None -> fail ("no member " ^ member)

(* A number from a committed report, found as {!committed_member}. *)
let committed ?table ?where path member =
  match committed_member ?table ?where path member with
  | Json.Float x -> x
  | Json.Int i -> float_of_int i
  | _ -> failwith (Printf.sprintf "%s: no number %s" path member)

(* The scale a committed report was measured at (its "scale" member). *)
let committed_scale path =
  match committed_member path "scale" with
  | Json.String "quick" -> Quick
  | Json.String "normal" -> Normal
  | Json.String "full" -> Full
  | _ -> failwith (path ^ ": no scale quick, normal or full")

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
