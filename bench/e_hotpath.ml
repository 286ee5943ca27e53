(* E16 — hot-path throughput: rounds/sec and edge-events/sec of the
   synchronous round loop (select + apply) for BFDN and CTE across
   {comb, b-ary, random, CTE-trap} × k ∈ {8, 64, 512}. This is the
   BENCH trajectory experiment: the numbers land in BENCH_hotpath.json
   together with the frozen seed-implementation baseline (measured on
   the same instances, same machine, before the zero-allocation round
   loop landed), so every future PR can be judged against it.

   E20 rides on the same interleaved measurement: what span tracing
   adds to the server's metrics-probed job, disabled (must be within 1%
   of the metrics-probed loop — the server then runs the metrics probe
   untouched) and enabled (within 3% — a fresh recorder plus three
   phase spans closed from the phase counters), at k = 512. Both sides
   build the job's probe with [Probe.traced], the function the server's
   job execution calls. Both budgets are enforced by --perf-gate against the
   committed report.

   The instances are the paper's adversarial regime — deep combs and the
   CTE trap tree — where per-round costs dominate sweep wall time. *)

open Bench_common
module Table = Bfdn_util.Table
module Span = Bfdn_obs.Span

let report_path = "BENCH_hotpath.json"

(* (family, depth_hint): deep adversarial shapes, plus bushy and random. *)
let families = [ ("comb", 60); ("binary", 12); ("random", 25); ("trap", 40) ]
let ks = [ 8; 64; 512 ]
let algos = [ "bfdn"; "cte" ]
let nominal_n = 4000

(* Rounds/sec of the seed (pre-optimization) implementation on the same
   instances, captured at the default scale on the development machine the
   day this experiment was added. Keyed (family, algo, k). Used only at
   the default scale — at --quick/--full the instances differ. *)
let seed_baseline : ((string * string * int) * float) list =
  [
    (("comb", "bfdn", 8), 667010.);
    (("comb", "cte", 8), 526067.);
    (("comb", "bfdn", 64), 197002.);
    (("comb", "cte", 64), 141321.);
    (("comb", "bfdn", 512), 13879.);
    (("comb", "cte", 512), 12521.);
    (("binary", "bfdn", 8), 582684.);
    (("binary", "cte", 8), 491139.);
    (("binary", "bfdn", 64), 63450.);
    (("binary", "cte", 64), 49349.);
    (("binary", "bfdn", 512), 6509.);
    (("binary", "cte", 512), 3592.);
    (("random", "bfdn", 8), 472755.);
    (("random", "cte", 8), 421296.);
    (("random", "bfdn", 64), 73731.);
    (("random", "cte", 64), 55392.);
    (("random", "bfdn", 512), 7866.);
    (("random", "cte", 512), 6263.);
    (("trap", "bfdn", 8), 326539.);
    (("trap", "cte", 8), 375604.);
    (("trap", "bfdn", 64), 103894.);
    (("trap", "cte", 64), 120570.);
    (("trap", "bfdn", 512), 12991.);
    (("trap", "cte", 512), 13552.);
  ]

let baseline_for key =
  if !scale <> Normal then None else List.assoc_opt key seed_baseline

let algo_of ?probe name env = Algo_registry.instantiate ?probe name env

type sample = {
  s_rounds : int;
  s_events : int;
  s_wall : float; (* best (minimum) wall over the repetitions *)
}

(* One full exploration = one repetition; repeat until the total measured
   time passes [min_total] (at least [min_reps] times), keep the fastest.
   Runs are deterministic, so every repetition performs identical work.
   A direct loop: this times the round loop itself. *)
let measure ?(probe = Probe.noop) ?(min_total = 0.4) ?(min_reps = 2)
    ?(max_reps = 6) tree k algo_name =
  let rounds = ref 0 and events = ref 0 in
  let best = ref infinity and total = ref 0.0 and reps = ref 0 in
  while (!total < min_total || !reps < min_reps) && !reps < max_reps do
    let t0 = Batch.now () in
    let env = Env.create tree ~k in
    let r =
      Exec_env.run ~probe (Exec_env.of_env (algo_of ~probe algo_name env) env)
    in
    let dt = Batch.now () -. t0 in
    if not r.explored then failwith "e_hotpath: instance not explored";
    rounds := r.rounds;
    events := r.edge_events;
    total := !total +. dt;
    if dt < !best then best := dt;
    incr reps
  done;
  { s_rounds = !rounds; s_events = !events; s_wall = !best }

let config_rows () =
  List.concat_map
    (fun (family, depth_hint) ->
      let tree =
        Tree_gen.of_family family ~rng:(Rng.create seed) ~n:(sized nominal_n)
          ~depth_hint
      in
      let n = Tree.n tree and depth = Tree.depth tree in
      List.concat_map
        (fun k ->
          List.map
            (fun algo ->
              let s = measure tree k algo in
              (family, n, depth, k, algo, s))
            algos)
        ks)
    families

let json_of_row (family, n, depth, k, algo, s) =
  let rps = float_of_int s.s_rounds /. Float.max 1e-9 s.s_wall in
  let eps = float_of_int s.s_events /. Float.max 1e-9 s.s_wall in
  let base =
    [
      ("family", Json.String family);
      ("n", Json.Int n);
      ("depth", Json.Int depth);
      ("k", Json.Int k);
      ("algo", Json.String algo);
      ("rounds", Json.Int s.s_rounds);
      ("edge_events", Json.Int s.s_events);
      ("wall_seconds", Json.Float s.s_wall);
      ("rounds_per_sec", Json.Float rps);
      ("events_per_sec", Json.Float eps);
    ]
  in
  let vs_seed =
    match baseline_for (family, algo, k) with
    | None -> []
    | Some b ->
        [
          ("seed_rounds_per_sec", Json.Float b);
          ("speedup_vs_seed", Json.Float (rps /. Float.max 1e-9 b));
        ]
  in
  Json.Obj (base @ vs_seed)

(* ---- probe overhead ----

   The acceptance bar for the obs subsystem: a fully enabled metrics
   probe (clock reads bracketing each phase, per-round counters,
   reanchor histograms) must cost <= 2% vs the no-op default. Measured
   at k = 512, where a round does enough real work that the handful of
   counter bumps and three monotonic-clock reads are noise; at tiny k
   the relative cost is meaningless (a round is tens of nanoseconds). *)

let overhead_k = 512

type overhead_row = {
  o_family : string;
  o_algo : string;
  o_plain : sample;
  o_probed : sample;
  o_ratio : float; (* probed/plain wall ratio over the cleanest segments *)
  o_reg : Metrics.t; (* registry filled by the probed repetitions *)
  (* E20 — span-tracing overhead, measured against the metrics-probed
     side (the server always runs the metrics probe; tracing is the
     increment on top): *)
  o_disabled : sample; (* the metrics probe, untouched *)
  o_enabled : sample; (* the metrics probe traced into a recorder *)
  o_dis_ratio : float; (* disabled/probed — must stay within 1% *)
  o_en_ratio : float; (* enabled/probed — must stay within 3% *)
}

let overhead_pct r = 100.0 *. (r.o_ratio -. 1.0)
let tracing_disabled_pct r = 100.0 *. (r.o_dis_ratio -. 1.0)
let tracing_enabled_pct r = 100.0 *. (r.o_en_ratio -. 1.0)

(* Segment width for overhead timing, in rounds. Small enough that a
   segment (~0.4–1 ms at k = 512) can fall between bursts of competing
   load on a shared core; large enough that the per-segment clock reads
   (two per [overhead_seg] rounds, added identically to both sides) are
   far below the effect being measured. Power of two: the round check
   is a single [land]. *)
let overhead_seg = 16

(* Mutable measurement state for one (family, algo) overhead config. *)
type overhead_cfg = {
  c_family : string;
  c_algo : string;
  c_reg : Metrics.t;
  (* One timed sample: an inner-batched block of explorations
     alternating plain/probed per exploration, each exploration feeding
     per-[overhead_seg]-round segment walls into [c_plains]/[c_probeds]. *)
  c_one : unit -> unit;
  c_rounds : int;
  c_events : int;
  c_plains : float list ref; (* per-segment plain walls *)
  c_probeds : float list ref; (* per-segment probed walls *)
  c_disableds : float list ref; (* probed, tracing disabled *)
  c_enableds : float list ref; (* probed, tracing enabled *)
}

(* Plain and probed repetitions are interleaved and each side keeps its
   best wall time: CPU-frequency drift between "first measure A, then
   measure B" sessions easily exceeds the effect being measured, but it
   hits both sides of an interleaved pair equally. *)
let overhead_rows () =
  let pairs = match !scale with Quick -> 4 | Normal -> 24 | Full -> 48 in
  let cfgs =
    List.concat_map
      (fun (family, depth_hint) ->
        let tree =
          Tree_gen.of_family family ~rng:(Rng.create seed) ~n:(sized nominal_n)
            ~depth_hint
        in
        List.map
          (fun algo ->
            let reg = Metrics.create () in
            let probe = Probe.of_metrics reg in
            (* [explore probe out] runs one full exploration and, when
               [out] is given, appends the wall time of every completed
               [overhead_seg]-round segment to it. The segment clock
               lives in [Exec_env.run]'s [on_round] hook, which both the
               instrumented and the plain loop call identically — so
               the (tiny) measurement cost is paid by both sides and
               cancels in the ratio. *)
            let explore ?out probe =
              let env = Env.create tree ~k:overhead_k in
              let a = algo_of ~probe algo env in
              let r =
                match out with
                | None -> Exec_env.run ~probe (Exec_env.of_env a env)
                | Some acc ->
                    let last = ref (Bfdn_util.Clock.now ()) in
                    let on_round _ =
                      if Env.round env land (overhead_seg - 1) = 0 then begin
                        let t = Bfdn_util.Clock.now () in
                        acc := (t -. !last) :: !acc;
                        last := t
                      end
                    in
                    Exec_env.run ~probe ~on_round (Exec_env.of_env a env)
              in
              if not r.Exec_env.explored then
                failwith "e_hotpath: overhead instance not explored";
              (r.Exec_env.rounds, r.Exec_env.edge_events)
            in
            (* Warm up, and batch enough explorations per timed sample
               that a sample lasts >= ~20ms: a 1ms run cannot be timed
               to the precision the 2% question needs. *)
            let t0 = Batch.now () in
            let rounds, events = explore Probe.noop in
            let est = Batch.now () -. t0 in
            let inner =
              max 1 (int_of_float (Float.ceil (0.02 /. Float.max 1e-6 est)))
            in
            (* Alternate plain/probed per ~1ms exploration inside one
               sample, accumulating a separate timer for each side: CPU
               frequency state and ambient load are then identical for
               both sides of the ratio, which neither best-of (defeated
               by sparse turbo windows landing on one side) nor coarse
               per-sample pairing (defeated by bursts shorter than a
               sample) guarantees. *)
            let plains = ref [] and probeds = ref [] in
            let disableds = ref [] and enableds = ref [] in
            (* With tracing disabled [Probe.traced] returns the metrics
               probe physically untouched, so the disabled side times
               the very same closures as the probed side: the measured
               delta is the noise floor of the comparison. *)
            let disabled, _ =
              Probe.traced Span.disabled ~parent:Span.none reg probe
            in
            let one () =
              let timed out p =
                let rd, ev = explore ~out p in
                if rd <> rounds || ev <> events then
                  failwith "e_hotpath: enabled probe perturbed the round loop"
              in
              (* A fresh recorder per exploration, as the server does
                 per job: recorder setup and span close are part of the
                 cost being measured. *)
              let timed_enabled out =
                let sp = Span.create ~trace_id:"e20" () in
                let p, finish = Probe.traced sp ~parent:Span.none reg probe in
                timed out p;
                finish ~state:"done"
              in
              let sides =
                [|
                  (fun () -> timed plains Probe.noop);
                  (fun () -> timed probeds probe);
                  (fun () -> timed disableds disabled);
                  (fun () -> timed_enabled enableds);
                |]
              in
              (* Rotate the side order each iteration: GC pauses are
                 phase-locked to the allocation cycle (every exploration
                 allocates a fresh env, so minor collections recur every
                 few explorations) and would otherwise land
                 systematically in one side's slot. *)
              for it = 1 to inner do
                for j = 0 to 3 do
                  sides.((it + j) land 3) ()
                done
              done
            in
            { c_family = family; c_algo = algo; c_reg = reg; c_one = one;
              c_rounds = rounds; c_events = events;
              c_plains = plains; c_probeds = probeds;
              c_disableds = disableds; c_enableds = enableds })
          algos)
      families
  in
  (* Samples are round-robined across configs so each config's samples
     span the whole multi-second measurement window rather than one
     contiguous slice a single noise burst can cover. *)
  for _ = 1 to pairs do
    List.iter (fun c -> c.c_one ()) cfgs
  done;
  List.map
    (fun c ->
      (* Overhead estimator: each side independently keeps the quartile
         of smallest per-segment walls, and the estimate is the ratio
         of the two trimmed means. Machine noise (a shared single core
         with bursty competing load) is additive and heavy-tailed, so a
         full-sum ratio is dominated by whichever side the largest
         bursts happened to land on, and whole-exploration statistics
         cannot help the slow configs at all — a 60 ms exploration
         virtually always absorbs a burst, so best-of, medians and
         trimmed sums over explorations all carry multi-percent
         variance. A ~0.5 ms segment, in contrast, fits between bursts;
         with hundreds of segments per side the cleanest quartile is
         burst-free on both sides, and the per-exploration interleaving
         of [one] keeps the two sides' quiet segments comparable (same
         frequency state, same ambient load). *)
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
      let tp = trimmed !(c.c_plains) in
      let tq = trimmed !(c.c_probeds) in
      let td = trimmed !(c.c_disableds) in
      let te = trimmed !(c.c_enableds) in
      (* Reconstruct a clean-run-equivalent wall for the r/s display:
         per-round time is (trimmed segment wall) / overhead_seg. *)
      let wall_of per_seg =
        per_seg /. float_of_int overhead_seg *. float_of_int c.c_rounds
      in
      let sample wall =
        { s_rounds = c.c_rounds; s_events = c.c_events; s_wall = wall }
      in
      { o_family = c.c_family; o_algo = c.c_algo;
        o_plain = sample (wall_of tp); o_probed = sample (wall_of tq);
        o_ratio = tq /. Float.max 1e-12 tp; o_reg = c.c_reg;
        o_disabled = sample (wall_of td); o_enabled = sample (wall_of te);
        o_dis_ratio = td /. Float.max 1e-12 tq;
        o_en_ratio = te /. Float.max 1e-12 tq })
    cfgs

let json_of_overhead r =
  Json.Obj
    [
      ("family", Json.String r.o_family);
      ("algo", Json.String r.o_algo);
      ("k", Json.Int overhead_k);
      ("plain_wall_seconds", Json.Float r.o_plain.s_wall);
      ("probed_wall_seconds", Json.Float r.o_probed.s_wall);
      ("overhead_pct", Json.Float (overhead_pct r));
    ]

(* E20 rows: span-tracing cost relative to the metrics-probed loop. *)
let json_of_tracing r =
  Json.Obj
    [
      ("family", Json.String r.o_family);
      ("algo", Json.String r.o_algo);
      ("k", Json.Int overhead_k);
      ("probed_wall_seconds", Json.Float r.o_probed.s_wall);
      ("disabled_wall_seconds", Json.Float r.o_disabled.s_wall);
      ("enabled_wall_seconds", Json.Float r.o_enabled.s_wall);
      ("tracing_disabled_pct", Json.Float (tracing_disabled_pct r));
      ("tracing_enabled_pct", Json.Float (tracing_enabled_pct r));
    ]

(* Per-phase wall share recorded by the probe, for --profile. *)
let profile_row r =
  let ns = Probe.phase_ns r.o_reg in
  let sel = ns Probe.Select and app = ns Probe.Apply in
  let fin = ns Probe.Finished_check in
  let total = Float.max 1.0 (float_of_int (sel + app + fin)) in
  let pct x = 100.0 *. float_of_int x /. total in
  let reanchors =
    Option.fold ~none:0 ~some:Metrics.value
      (Metrics.find_counter r.o_reg "reanchors")
  in
  (pct sel, pct app, pct fin, reanchors)

let run () =
  header "E16 (hot path)"
    "round-loop throughput, BFDN + CTE on deep adversarial instances";
  let rows = config_rows () in
  let t =
    Table.create
      ~caption:"rounds/sec and edge-events/sec of the synchronous round loop"
      [
        ("family", Table.Left); ("n", Table.Right); ("D", Table.Right);
        ("k", Table.Right); ("algo", Table.Left); ("rounds", Table.Right);
        ("rounds/s", Table.Right); ("events/s", Table.Right);
        ("vs seed", Table.Right);
      ]
  in
  List.iter
    (fun (family, n, depth, k, algo, s) ->
      let rps = float_of_int s.s_rounds /. Float.max 1e-9 s.s_wall in
      let eps = float_of_int s.s_events /. Float.max 1e-9 s.s_wall in
      let vs =
        match baseline_for (family, algo, k) with
        | None -> "-"
        | Some b -> Printf.sprintf "%.2fx" (rps /. Float.max 1e-9 b)
      in
      Table.add_row t
        [
          family; Table.fint n; Table.fint depth; Table.fint k; algo;
          Table.fint s.s_rounds;
          Table.ffloat ~decimals:0 rps; Table.ffloat ~decimals:0 eps; vs;
        ])
    rows;
  Table.print t;
  let orows = overhead_rows () in
  let ot =
    Table.create
      ~caption:
        (Printf.sprintf
           "instrumentation overhead: enabled metrics probe vs no-op (k=%d)"
           overhead_k)
      [
        ("family", Table.Left); ("algo", Table.Left);
        ("plain r/s", Table.Right); ("probed r/s", Table.Right);
        ("overhead", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      let rps (s : sample) =
        float_of_int s.s_rounds /. Float.max 1e-9 s.s_wall
      in
      Table.add_row ot
        [
          r.o_family; r.o_algo;
          Table.ffloat ~decimals:0 (rps r.o_plain);
          Table.ffloat ~decimals:0 (rps r.o_probed);
          Printf.sprintf "%+.2f%%" (overhead_pct r);
        ])
    orows;
  Table.print ot;
  let max_ov =
    List.fold_left (fun acc r -> Float.max acc (overhead_pct r)) neg_infinity
      orows
  in
  Printf.printf "max probe overhead: %+.2f%% (target <= 2%%)\n" max_ov;
  let tt =
    Table.create
      ~caption:
        (Printf.sprintf
           "E20 span-tracing overhead vs the metrics-probed loop (k=%d)"
           overhead_k)
      [
        ("family", Table.Left); ("algo", Table.Left);
        ("probed r/s", Table.Right); ("disabled", Table.Right);
        ("enabled", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      let rps (s : sample) =
        float_of_int s.s_rounds /. Float.max 1e-9 s.s_wall
      in
      Table.add_row tt
        [
          r.o_family; r.o_algo;
          Table.ffloat ~decimals:0 (rps r.o_probed);
          Printf.sprintf "%+.2f%%" (tracing_disabled_pct r);
          Printf.sprintf "%+.2f%%" (tracing_enabled_pct r);
        ])
    orows;
  Table.print tt;
  let max_dis =
    List.fold_left
      (fun acc r -> Float.max acc (tracing_disabled_pct r))
      neg_infinity orows
  in
  let max_en =
    List.fold_left
      (fun acc r -> Float.max acc (tracing_enabled_pct r))
      neg_infinity orows
  in
  Printf.printf
    "max tracing overhead: disabled %+.2f%% (target <= 1%%), enabled %+.2f%% \
     (target <= 3%%)\n"
    max_dis max_en;
  if !profile then begin
    let pt =
      Table.create
        ~caption:"--profile: per-phase wall share of the probed runs"
        [
          ("family", Table.Left); ("algo", Table.Left);
          ("select", Table.Right); ("apply", Table.Right);
          ("finished", Table.Right); ("reanchors", Table.Right);
        ]
    in
    List.iter
      (fun r ->
        let sel, app, fin, rean = profile_row r in
        Table.add_row pt
          [
            r.o_family; r.o_algo;
            Printf.sprintf "%.1f%%" sel; Printf.sprintf "%.1f%%" app;
            Printf.sprintf "%.1f%%" fin; Table.fint rean;
          ])
      orows;
    Table.print pt
  end;
  Engine_report.write ~path:report_path
    (Json.Obj
       (Engine_report.meta ~seed ~workers:1
       @ [
           ("label", Json.String "E16 hot-path throughput");
           ("scale", Json.String (scale_name ()));
           ("configs", Json.List (List.map json_of_row rows));
           ("probe_overhead", Json.List (List.map json_of_overhead orows));
           ("max_probe_overhead_pct", Json.Float max_ov);
           ("tracing_overhead", Json.List (List.map json_of_tracing orows));
           ("max_tracing_disabled_pct", Json.Float max_dis);
           ("max_tracing_enabled_pct", Json.Float max_en);
         ]));
  Printf.printf "report written to %s\n" report_path

(* CI tripwire for --smoke: a tiny instance must explore, produce a
   positive throughput, and two measurements of the same config must
   report identical rounds (the measurement harness itself must not
   perturb the deterministic round loop). The probed variant must agree
   move-for-move with the plain one, its counters must match the
   runner's own totals, and its cost must stay within a loose factor —
   at this instance size wall times are noisy, so the precise <= 2%
   claim is checked by [run] at the default scale, not here. *)
let smoke () =
  let tree =
    Tree_gen.of_family "comb" ~rng:(Rng.create seed) ~n:300 ~depth_hint:15
  in
  let a = measure ~min_total:0.0 ~min_reps:1 ~max_reps:1 tree 8 "bfdn" in
  let b = measure ~min_total:0.0 ~min_reps:1 ~max_reps:1 tree 8 "bfdn" in
  let c = measure ~min_total:0.0 ~min_reps:1 ~max_reps:1 tree 8 "cte" in
  let reg = Metrics.create () in
  let p =
    measure ~probe:(Probe.of_metrics reg) ~min_total:0.0 ~min_reps:1
      ~max_reps:1 tree 8 "bfdn"
  in
  let cval name =
    match Metrics.find_counter reg name with
    | Some cnt -> Metrics.value cnt
    | None -> -1
  in
  let counters_ok =
    cval "rounds" = p.s_rounds && cval "edge_events" = p.s_events
  in
  let overhead_ok = p.s_wall <= (3.0 *. a.s_wall) +. 0.01 in
  (* Span-tracing variant: the traced probe must agree move-for-move
     with the plain run and record its five spans. *)
  let treg = Metrics.create () in
  let sp = Span.create ~trace_id:"e20" () in
  let probe, finish =
    Probe.traced sp ~parent:Span.none treg (Probe.of_metrics treg)
  in
  let tr =
    measure ~probe ~min_total:0.0 ~min_reps:1 ~max_reps:1 tree 8 "bfdn"
  in
  finish ~state:"done";
  let tracing_ok =
    tr.s_rounds = a.s_rounds && tr.s_events = a.s_events
    && Span.length sp = 5 && Span.dropped sp = 0
  in
  a.s_rounds > 0 && a.s_rounds = b.s_rounds && a.s_events = b.s_events
  && c.s_rounds > 0 && a.s_wall > 0.0
  && p.s_rounds = a.s_rounds && p.s_events = a.s_events
  && counters_ok && overhead_ok && tracing_ok

(* ---- CI perf-regression gate (--perf-gate) ----

   Re-measure a small subset of the committed configs and fail when
   throughput drops below [gate_floor] of the committed
   BENCH_hotpath.json value (a >40% regression). The committed numbers
   come from whatever machine last ran E16 at the default scale, so the
   floor is deliberately loose: it catches accidental algorithmic
   slowdowns on the hot path, not machine-to-machine variance. *)

let gate_floor = 0.6

let gate_subset =
  [ ("comb", "bfdn", 8); ("comb", "cte", 8); ("random", "bfdn", 64) ]

(* E20 budgets: the committed report's worst-case tracing overheads
   must stay inside the issue's budgets. These are checked against the
   committed numbers (re-measuring a 1% effect in a noisy CI runner
   would flake); regenerating the report is part of landing any change
   to the probe or span hot paths. *)
let tracing_disabled_budget_pct = 1.0
let tracing_enabled_budget_pct = 3.0

let perf_gate () =
  scale := Normal;
  header "PERF GATE (hot path)"
    (Printf.sprintf
       "rounds/s >= %.2fx the committed %s; E20 tracing budgets" gate_floor
       report_path);
  List.iter
    (fun (family, algo, k) ->
      let committed =
        committed report_path "rounds_per_sec"
          ~where:
            [
              ("family", Json.String family); ("algo", Json.String algo);
              ("k", Json.Int k);
            ]
      in
      let tree =
        Tree_gen.of_family family ~rng:(Rng.create seed) ~n:(sized nominal_n)
          ~depth_hint:(List.assoc family families)
      in
      let s = measure tree k algo in
      check_gate ~gate:"E16"
        ~name:(Printf.sprintf "%s/%s k=%d r/s" family algo k)
        (float_of_int s.s_rounds /. Float.max 1e-9 s.s_wall)
        (Relative { committed; floor = gate_floor }))
    gate_subset;
  List.iter
    (fun (member, budget) ->
      check_gate ~gate:"E20" ~name:(member ^ " (<= budget)")
        (committed report_path member) (At_most budget))
    [
      ("max_tracing_disabled_pct", tracing_disabled_budget_pct);
      ("max_tracing_enabled_pct", tracing_enabled_budget_pct);
    ]
