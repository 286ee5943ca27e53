(* E16 — hot-path throughput: rounds/sec and edge-events/sec of the
   synchronous round loop (select + apply) for BFDN and CTE across
   {comb, b-ary, random, CTE-trap} × k ∈ {8, 64, 512}. This is the
   BENCH trajectory experiment: the numbers land in BENCH_hotpath.json
   together with the frozen seed-implementation baseline (measured on
   the same instances, same machine, before the zero-allocation round
   loop landed), so every future PR can be judged against it.

   E20 rides on the same interleaved measurement: what span tracing
   adds to the server's metrics-probed job at k = 512, enabled (within
   3% — a fresh recorder plus three phase spans closed from the phase
   counters) and disabled. Both sides build the job's probe with
   [Probe.traced], the function the server's job execution calls. On a
   disabled recorder that function returns the metrics probe itself,
   so the disabled side times the probed side's closures again: an A/A
   comparison, reported as the protocol's noise floor. That tracing
   disabled costs nothing is the identity the obs test-suite checks,
   not a timed budget. --perf-gate checks the enabled maximum committed
   in BENCH_hotpath.json against its budget; it is re-measured only
   when this experiment is regenerated.

   The instances are the paper's adversarial regime — deep combs and the
   CTE trap tree — where per-round costs dominate sweep wall time. Every
   exploration runs through [Scenario.run_on_tree] ([run_tree]), the
   path of `explore run --tree-file`, so a row's wall includes building
   and releasing the environment; the A/B segments start at the first
   round and leave both out. *)

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

type sample = {
  s_rounds : int;
  s_events : int;
  s_wall : float;
}

(* One full exploration through [Scenario.run_on_tree], the path every
   product run takes: an A/B side of [overhead_rows], and with
   [~on_round:ignore] one repetition of [measure]. *)
let explore ?probe tree k algo ~on_round =
  (run_tree ?probe ~on_round algo tree k).Scenario.result

let sample_of (r : Exec_env.result) wall =
  if not r.explored then failwith "e_hotpath: instance not explored";
  { s_rounds = r.rounds; s_events = r.edge_events; s_wall = wall }

let rps s = float_of_int s.s_rounds /. Float.max 1e-9 s.s_wall
let eps s = float_of_int s.s_events /. Float.max 1e-9 s.s_wall

(* The committed rows and the gate rows alike: the best of the
   repetitions within 0.4 s, at least 2. *)
let measure tree k algo =
  let r, t =
    (repeat ~budget:0.4 ~min_reps:2
       [| (fun () -> explore tree k algo ~on_round:ignore) |]).(0)
  in
  sample_of r t.best

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
      ("rounds_per_sec", Json.Float (rps s));
      ("events_per_sec", Json.Float (eps s));
    ]
  in
  let vs_seed =
    match baseline_for (family, algo, k) with
    | None -> []
    | Some b ->
        [
          ("seed_rounds_per_sec", Json.Float b);
          ("speedup_vs_seed", Json.Float (rps s /. Float.max 1e-9 b));
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
  o_disabled : sample; (* the metrics probe, untouched: A/A noise *)
  o_enabled : sample; (* the metrics probe traced into a recorder *)
  o_dis_ratio : float; (* disabled/probed — the A/A noise floor *)
  o_en_ratio : float; (* enabled/probed — must stay within 3% *)
}

let overhead_pct r = 100.0 *. (r.o_ratio -. 1.0)
let tracing_disabled_pct r = 100.0 *. (r.o_dis_ratio -. 1.0)
let tracing_enabled_pct r = 100.0 *. (r.o_en_ratio -. 1.0)

(* Four sides per (family, algo) through [ab_overhead]: plain, metrics
   probed, tracing disabled and tracing enabled. A sample lasts >= ~20 ms
   (a 1 ms run cannot be timed to the precision the 2% question needs). *)
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
            let side p = explore ~probe:p tree overhead_k algo in
            (* With tracing disabled [Probe.traced] returns the metrics
               probe physically untouched (test_obs pins the identity),
               so the disabled side times the very same closures as the
               probed side: the measured delta is the noise floor of the
               comparison. *)
            let disabled, _ =
              Probe.traced Span.disabled ~parent:Span.none reg probe
            in
            (* A fresh recorder per exploration, as the server does per
               job. *)
            let enabled ~on_round =
              let sp = Span.create ~trace_id:"e20" () in
              let p, finish = Probe.traced sp ~parent:Span.none reg probe in
              let r = side p ~on_round in
              finish ~state:"done";
              r
            in
            ( (family, algo, reg),
              [| side Probe.noop; side probe; side disabled; enabled |] ))
          algos)
      families
  in
  let estimates = ab_overhead ~sample:0.02 ~pairs (List.map snd cfgs) in
  List.map2
    (fun ((family, algo, reg), _) ((warm : Exec_env.result), t) ->
      (* A clean-run-equivalent wall for the r/s display: per-round time
         is (trimmed segment wall) / ab_segment. *)
      let sample per_seg =
        sample_of warm
          (per_seg /. float_of_int ab_segment *. float_of_int warm.rounds)
      in
      let tp = t.(0) and tq = t.(1) and td = t.(2) and te = t.(3) in
      { o_family = family; o_algo = algo; o_reg = reg;
        o_plain = sample tp; o_probed = sample tq;
        o_ratio = tq /. Float.max 1e-12 tp;
        o_disabled = sample td; o_enabled = sample te;
        o_dis_ratio = td /. Float.max 1e-12 tq;
        o_en_ratio = te /. Float.max 1e-12 tq })
    cfgs estimates

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

(* Per-phase wall share recorded by the probe. *)
let profile_row r =
  let ns = Probe.phase_ns r.o_reg in
  let sel = ns Probe.Select and app = ns Probe.Apply in
  let fin = ns Probe.Finished_check in
  let total = Float.max 1.0 (float_of_int (sel + app + fin)) in
  let pct x = 100.0 *. float_of_int x /. total in
  (pct sel, pct app, pct fin, counter r.o_reg "reanchors")

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
      let vs =
        match baseline_for (family, algo, k) with
        | None -> "-"
        | Some b -> Printf.sprintf "%.2fx" (rps s /. Float.max 1e-9 b)
      in
      Table.add_row t
        [
          family; Table.fint n; Table.fint depth; Table.fint k; algo;
          Table.fint s.s_rounds;
          Table.ffloat ~decimals:0 (rps s); Table.ffloat ~decimals:0 (eps s);
          vs;
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
      Table.add_row ot
        [
          r.o_family; r.o_algo;
          Table.ffloat ~decimals:0 (rps r.o_plain);
          Table.ffloat ~decimals:0 (rps r.o_probed);
          Printf.sprintf "%+.2f%%" (overhead_pct r);
        ])
    orows;
  Table.print ot;
  let worst pct =
    List.fold_left (fun acc r -> Float.max acc (pct r)) neg_infinity orows
  in
  let max_ov = worst overhead_pct in
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
      Table.add_row tt
        [
          r.o_family; r.o_algo;
          Table.ffloat ~decimals:0 (rps r.o_probed);
          Printf.sprintf "%+.2f%%" (tracing_disabled_pct r);
          Printf.sprintf "%+.2f%%" (tracing_enabled_pct r);
        ])
    orows;
  Table.print tt;
  let max_dis = worst tracing_disabled_pct in
  let max_en = worst tracing_enabled_pct in
  Printf.printf
    "max tracing overhead: disabled %+.2f%% (A/A noise floor), enabled \
     %+.2f%% (target <= 3%%)\n"
    max_dis max_en;
  let pt =
    Table.create
      ~caption:"per-phase wall share of the probed runs"
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
  Table.print pt;
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
  let once ?probe algo =
    let t0 = Clock.now () in
    let r = explore ?probe tree 8 algo ~on_round:ignore in
    sample_of r (Clock.now () -. t0)
  in
  let a = once "bfdn" in
  let b = once "bfdn" in
  let c = once "cte" in
  let reg = Metrics.create () in
  let p = once ~probe:(Probe.of_metrics reg) "bfdn" in
  let counters_ok =
    counter reg "rounds" = p.s_rounds
    && counter reg "edge_events" = p.s_events
  in
  let overhead_ok = p.s_wall <= (3.0 *. a.s_wall) +. 0.01 in
  (* Span-tracing variant: the traced probe must agree move-for-move
     with the plain run and record its five spans. *)
  let treg = Metrics.create () in
  let sp = Span.create ~trace_id:"e20" () in
  let probe, finish =
    Probe.traced sp ~parent:Span.none treg (Probe.of_metrics treg)
  in
  let tr = once ~probe "bfdn" in
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
   slowdowns on the hot path, not machine-to-machine variance. The gate
   rows and the committed rows are timed by the same [measure]. *)

let gate_floor = 0.6

let gate_subset =
  [ ("comb", "bfdn", 8); ("comb", "cte", 8); ("random", "bfdn", 64) ]

(* E20 budget: the committed report's worst-case enabled-tracing
   overhead must stay inside it. The gate re-reads the committed maximum
   and re-measures nothing (a 3% effect re-measured on a noisy CI runner
   would flake); it is re-measured only when E16 is regenerated. The
   disabled side has no budget: it is an A/A comparison, and its zero
   cost is an identity the obs test-suite checks. *)
let tracing_enabled_budget_pct = 3.0

let perf_gate () =
  scale := Normal;
  header "PERF GATE (hot path)"
    (Printf.sprintf
       "rounds/s >= %.2fx the committed %s; its E20 enabled-tracing \
        maximum within budget"
       gate_floor
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
      check_gate ~gate:"E16"
        ~name:(Printf.sprintf "%s/%s k=%d r/s" family algo k)
        (rps (measure tree k algo))
        (Relative { committed; floor = gate_floor }))
    gate_subset;
  let member = "max_tracing_enabled_pct" in
  check_gate ~gate:"E20" ~name:(member ^ " (<= budget)")
    (committed report_path member) (At_most tracing_enabled_budget_pct)
