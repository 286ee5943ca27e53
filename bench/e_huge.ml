(* E19 — huge scale tier: millions-of-nodes instances on the paged node
   store with lazily materialized worlds. Each measurement
   runs in its own subprocess (re-exec of this binary with a hidden
   --huge-probe=MODE:SPEC argument, SPEC a scenario's wire form) so
   VmHWM — the kernel's monotone per-process high-water mark —
   attributes peak RSS to exactly one configuration. A lazy probe is
   [Scenario.run]; an eager one runs the same spec on
   [Scenario.materialize]'s tree, so the random rows explore the
   instance the scenario derives from the seed.

   Three claims land in BENCH_huge.json:
   - throughput: rounds/sec of full explorations at n = 10^6, k up to
     10^4, on lazy worlds, with the GC pause histogram from the
     Gc_probe round hook;
   - memory: a bounded exploration of an n = 10^6 world holds
     O(explored) state under scale=lazy — its peak RSS must stay a
     small fraction (target <= ~25%) of the same run against the fully
     materialized eager instance;
   - reach: a bounded prefix of an n = 10^7 world completes in seconds
     and tens of MB, which the eager tier cannot represent cheaply.

   The gate row (n = 10^5, k = 256, fixed whatever --quick/--full says)
   feeds both the CI smoke assertion (--huge-smoke) and the perf gate
   (--perf-gate, >= 0.6x the committed rounds/sec). *)

open Bench_common
module Table = Bfdn_util.Table
module Gc_probe = Bfdn_obs.Gc_probe

let report_path = "BENCH_huge.json"

(* ---- probe protocol ----

   A probe argument is [MODE:SPEC]: the mode — "lazy", or "eager" for
   the fully materialized baseline — then the spec's wire form
   ([Scenario.to_string]). *)

let probe_arg (mode, spec) = mode ^ ":" ^ Scenario.to_string spec

let probe_of_arg arg =
  match String.index_opt arg ':' with
  | None -> failwith ("e_huge: probe argument is not MODE:SPEC: " ^ arg)
  | Some i -> (
      let wire = String.sub arg (i + 1) (String.length arg - i - 1) in
      match Scenario.of_string wire with
      | Ok spec -> (String.sub arg 0 i, spec)
      | Error msg -> failwith ("e_huge: probe spec: " ^ msg))

(* A lazy world of [family] at [n] nodes, explored by BFDN. *)
let huge_spec ?max_rounds family depth_hint n k =
  Scenario.make ~algo:"bfdn" ~k ~seed ?max_rounds
    (Scenario.world
       ~params:
         [
           ("depth_hint", Param.Int depth_hint); ("n", Param.Int n);
           ("scale", Param.String "lazy");
         ]
       family)

(* The node count a spec asks for. *)
let spec_n (sp : Scenario.t) =
  match sp.instance with
  | World { params; _ } -> (
      match List.assoc_opt "n" params with Some (Param.Int n) -> n | _ -> 0)
  | Adversarial _ -> 0

(* One measurement, in-process. The GC probe ticks from the round hook,
   so the pause histogram is at exploration-round granularity — exactly
   the stall number a robot round would observe. *)
let measure_probe (mode, (sp : Scenario.t)) =
  let reg = Metrics.create () in
  let gc = Gc_probe.create reg in
  let revealed = ref 0 in
  let on_round (x : Exec_env.t) =
    Gc_probe.tick gc;
    revealed := x.revealed ()
  in
  let run =
    match mode with
    | "lazy" -> fun () -> Scenario.run ~on_round sp
    | "eager" ->
        (* Fully materialized baseline: the same instance (identical
           rules, run to exhaustion) as a plain up-front tree. *)
        let tree = Scenario.materialize sp in
        fun () -> Scenario.run_on_tree ~on_round sp tree
    | m -> failwith ("e_huge: unknown probe mode " ^ m)
  in
  let t0 = Clock.now () in
  let r = (run ()).Scenario.result in
  let wall = Clock.now () -. t0 in
  Gc_probe.snapshot gc;
  Gc_probe.dispose gc;
  let pauses =
    match Metrics.find_histogram reg "gc_pause_ns" with
    | Some h -> Metrics.hist_count h
    | None -> 0
  in
  Json.Obj
    [
      ("mode", Json.String mode);
      ("family", Json.String (Scenario.instance_label sp));
      ("n", Json.Int (spec_n sp));
      ("k", Json.Int sp.k);
      ("max_rounds", Json.Int (Option.value ~default:0 sp.max_rounds));
      ("rounds", Json.Int r.rounds);
      ("explored", Json.Bool r.explored);
      ("edge_events", Json.Int r.edge_events);
      ("nodes_revealed", Json.Int !revealed);
      ("wall_seconds", Json.Float wall);
      ( "rounds_per_sec",
        Json.Float (float_of_int r.rounds /. Float.max 1e-9 wall) );
      ( "peak_rss_bytes",
        match Engine_report.peak_rss_bytes () with
        | Some b -> Json.Int b
        | None -> Json.Null );
      ("gc_major_cycles", Json.Int (Gc_probe.major_cycles gc));
      ("gc_pauses", Json.Int pauses);
      ("gc_metrics", Metrics.to_json reg);
    ]

(* Entry point of the hidden --huge-probe=MODE:SPEC argument: one
   measurement on an otherwise fresh process, one JSON line on stdout. *)
let probe_main arg =
  let j = measure_probe (probe_of_arg arg) in
  print_string (Json.to_string j);
  print_newline ()

(* ---- parent side: spawn probes, collect rows ---- *)

let run_probe p =
  let cmd =
    Filename.quote_command Sys.executable_name [ "--huge-probe=" ^ probe_arg p ]
  in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      match Json.of_string (String.trim out) with
      | Ok j -> j
      | Error msg -> failwith ("e_huge: probe output: " ^ msg))
  | _ -> failwith ("e_huge: probe failed: " ^ cmd)

let jint j key =
  match Json.member key j with
  | Some (Json.Int v) -> v
  | _ -> failwith ("e_huge: probe row missing int " ^ key)

let jfloat j key =
  match Json.member key j with
  | Some (Json.Float v) -> v
  | Some (Json.Int v) -> float_of_int v
  | _ -> failwith ("e_huge: probe row missing float " ^ key)

let jstr j key =
  match Json.member key j with
  | Some (Json.String v) -> v
  | _ -> failwith ("e_huge: probe row missing string " ^ key)

let jbool j key =
  match Json.member key j with
  | Some (Json.Bool v) -> v
  | _ -> failwith ("e_huge: probe row missing bool " ^ key)

let rss_mb j = float_of_int (jint j "peak_rss_bytes") /. (1024. *. 1024.)

(* ---- configurations ---- *)

(* Full explorations at the million-node tier; k spans 2^10 to 10^4. *)
let throughput_probes () =
  let n = sized 1_000_000 in
  List.map
    (fun sp -> ("lazy", sp))
    [
      huge_spec "binary" 20 n 1024;
      huge_spec "random" 25 n 1024;
      huge_spec "binary" 20 n 10_000;
    ]

(* Bounded prefix of an n = 10^7 world: only the explored region is ever
   materialized (at most k reveals per round), so this stays in tens of
   MB where the eager tier would hold gigabytes. *)
let reach_probe () =
  ("lazy", huge_spec ~max_rounds:300 "random" 25 (sized 10_000_000) 1024)

(* The memory claim: identical bounded run, lazy vs fully materialized.
   64 rounds at k = 256 reveal a few thousand nodes of the million. *)
let rss_probes () =
  let sp = huge_spec ~max_rounds:64 "random" 25 (sized 1_000_000) 256 in
  (("lazy", sp), ("eager", sp))

(* Target for lazy/eager peak RSS on the bounded run. The headline claim
   is <= ~25%; the recorded bar leaves room for base-process RSS noise. *)
let rss_ratio_budget = 0.30

(* Gate row: fixed size whatever the scale flag says, so the committed
   number is comparable across runs (and cheap enough for CI). *)
let gate_probe = ("lazy", huge_spec "binary" 20 100_000 256)

(* CI ceiling for the gate row's peak RSS: about twice the 15 MB a full
   n = 10^5 lazy exploration peaks at (2-core x86-64 VM, OCaml 5.1.1),
   where its 131071 nodes cost about 9 words each in node-store columns
   on top of the base process image. *)
let smoke_rss_ceiling_bytes = 32 * 1024 * 1024

let run () =
  header "E19 (huge tier)"
    "millions-of-nodes worlds: throughput, peak RSS and GC pauses under \
     lazy materialization";
  let t =
    Table.create
      ~caption:
        "per-subprocess measurements (VmHWM peak RSS; GC ticked per round)"
      [
        ("mode", Table.Left); ("family", Table.Left); ("n", Table.Right);
        ("k", Table.Right); ("rounds", Table.Right); ("done", Table.Left);
        ("rounds/s", Table.Right); ("RSS MB", Table.Right);
        ("gc maj", Table.Right); ("pauses", Table.Right);
      ]
  in
  let add_row j =
    Table.add_row t
      [
        jstr j "mode"; jstr j "family";
        Table.fint (jint j "n"); Table.fint (jint j "k");
        Table.fint (jint j "rounds");
        (if jbool j "explored" then "full" else "prefix");
        Table.ffloat ~decimals:0 (jfloat j "rounds_per_sec");
        Table.ffloat ~decimals:1 (rss_mb j);
        Table.fint (jint j "gc_major_cycles"); Table.fint (jint j "gc_pauses");
      ]
  in
  let throughput = List.map run_probe (throughput_probes ()) in
  List.iter add_row throughput;
  let reach = run_probe (reach_probe ()) in
  add_row reach;
  let rss_lazy_probe, rss_eager_probe = rss_probes () in
  let rss_lazy = run_probe rss_lazy_probe in
  let rss_eager = run_probe rss_eager_probe in
  add_row rss_lazy;
  add_row rss_eager;
  let gate = run_probe gate_probe in
  add_row gate;
  Table.print t;
  let ratio =
    float_of_int (jint rss_lazy "peak_rss_bytes")
    /. float_of_int (max 1 (jint rss_eager "peak_rss_bytes"))
  in
  Printf.printf
    "bounded n=%d run: lazy peak RSS %.1f MB vs materialized %.1f MB — \
     %.0f%% (target <= %.0f%%) %s\n"
    (jint rss_lazy "n") (rss_mb rss_lazy) (rss_mb rss_eager) (100. *. ratio)
    (100. *. rss_ratio_budget)
    (if ratio <= rss_ratio_budget then "ok" else "FAIL");
  Engine_report.write ~path:report_path
    (Json.Obj
       (Engine_report.meta ~seed ~workers:1
       @ [
           ("label", Json.String "E19 huge scale tier");
           ("scale", Json.String (scale_name ()));
           ("throughput", Json.List throughput);
           ("reach", reach);
           ( "rss_comparison",
             Json.Obj
               [
                 ("lazy", rss_lazy);
                 ("eager", rss_eager);
                 ("lazy_over_eager", Json.Float ratio);
                 ("budget", Json.Float rss_ratio_budget);
                 ("ok", Json.Bool (ratio <= rss_ratio_budget));
               ] );
           ("gate", gate);
           ("smoke_rss_ceiling_bytes", Json.Int smoke_rss_ceiling_bytes);
         ]));
  Printf.printf "report written to %s\n" report_path

(* ---- CI smoke (--huge-smoke): the gate row must fully explore within
   an absolute RSS ceiling. The probe's raw row (RSS, GC pause
   histogram) is printed first, as one JSON line, for CI to keep. ---- *)

let smoke () =
  let j = run_probe gate_probe in
  print_endline (Json.to_string j);
  let rss = jint j "peak_rss_bytes" in
  let explored = jbool j "explored" in
  let rounds = jint j "rounds" in
  Printf.printf
    "huge smoke: n=%d k=%d rounds=%d explored=%b peak RSS %.1f MB (ceiling \
     %d MB)\n"
    (jint j "n") (jint j "k") rounds explored (rss_mb j)
    (smoke_rss_ceiling_bytes / (1024 * 1024));
  (* The binary family snaps to a complete tree (2^d - 1 nodes, rounding
     n up), so the revealed count is checked against a range. *)
  explored && rounds > 0
  && jint j "nodes_revealed" > jint j "n" / 2
  && jint j "nodes_revealed" <= 2 * jint j "n"
  && rss > 0
  && rss <= smoke_rss_ceiling_bytes

(* ---- perf gate (--perf-gate): the gate row's rounds/sec must stay
   within [gate_floor] of the committed BENCH_huge.json ---- *)

let gate_floor = 0.6

let perf_gate () =
  header "PERF GATE (huge)"
    (Printf.sprintf "gate row rounds/s >= %.2fx the committed %s" gate_floor
       report_path);
  let committed = committed ~table:"gate" ~where:[] report_path "rounds_per_sec" in
  let j = run_probe gate_probe in
  check_gate ~gate:"E19"
    ~name:
      (Printf.sprintf "%s n=%d k=%d r/s"
         (jstr j "family") (jint j "n") (jint j "k"))
    (jfloat j "rounds_per_sec")
    (Relative { committed; floor = gate_floor })
