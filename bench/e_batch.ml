(* E22 — seed-batched execution.

   Two throughput claims go into BENCH_batch.json:

   1. Collapse: executing S consecutive seeds of one (world, algo, k)
      config through [Seed_batch.run] beats S sequential [Scenario.run]
      calls. On deterministic families with the draw-free bfdn policy
      the identical-lane collapse makes the batch degenerate to ONE
      execution plus S-1 replications, so seeds/sec grows nearly
      linearly in S; the perf gate requires >= 2x at S=64 vs the
      measured S=1 baseline of the same run.

   2. Sequential lanes lose nothing: on the randomized [random] family
      no tree is shared and nothing collapses, so every lane runs the
      plain round loop one after another. The perf gate requires S=8
      seeds/sec >= 0.8x the S=1 baseline of the same run.

   `--det-check --jobs=N` (the CI determinism lane) reuses this module:
   sequential runs, the N-worker job pool and the seed batch must agree
   execution-for-execution (outcomes and per-round frame digests) over a
   config matrix. *)

open Bench_common
module Seed_batch = Bfdn_engine.Seed_batch

let report_path = "BENCH_batch.json"
let nominal_n = 4000

(* (family, depth_hint). The first three are deterministic families, so
   their batched rows share one cached tree and collapse to one lane;
   [random] is the non-collapsing row, where every lane executes. *)
let depth_hints =
  [ ("binary", 12); ("comb", 60); ("spider", 30); ("random", 12) ]
let families = [ "binary"; "comb"; "spider" ]
let ks = [ 64; 512 ]
let batch_sizes = [ 1; 8; 64 ]

(* The non-collapsing cell (family, k) and its batch size. *)
let random_cell = ("random", 64)
let random_batch = 8

let spec ?(batch_seeds = 1) family k =
  Scenario.make ~algo:"bfdn" ~k ~seed ~batch_seeds
    (Scenario.world
       ~params:
         [
           ("depth_hint", Param.Int (List.assoc family depth_hints));
           ("n", Param.Int (sized nominal_n));
         ]
       family)

let min_total () =
  match !scale with Quick -> 0.02 | Normal -> 0.3 | Full -> 1.0

(* One end-to-end execution of the (possibly batched) spec, including
   validation and world construction — batching amortizes exactly that
   dispatch, so it must be inside the timed region. *)
let exec t =
  if t.Scenario.batch_seeds = 1 then begin
    ignore (Scenario.run t : Scenario.outcome);
    (false, false)
  end
  else
    let r = Seed_batch.run t in
    (r.Seed_batch.collapsed, r.Seed_batch.shared_world)

type row = {
  b_family : string;
  b_k : int;
  b_s : int;
  b_wall : float; (* seconds per batch execution *)
  b_seeds_s : float;
  b_collapsed : bool;
  b_shared : bool;
  mutable b_speedup : float; (* seeds/s vs the S=1 row of the same cell *)
}

(* The committed rows and the gate rows alike: the mean execution over a
   [min_total] window, after a warm-up that pages in the generator and
   stats. *)
let measure family k s =
  let t = spec ~batch_seeds:s family k in
  let (collapsed, shared), timing =
    (repeat ~budget:(min_total ()) [| (fun () -> exec t) |]).(0)
  in
  let wall = timing.mean in
  {
    b_family = family;
    b_k = k;
    b_s = s;
    b_wall = wall;
    b_seeds_s = float_of_int s /. Float.max 1e-9 wall;
    b_collapsed = collapsed;
    b_shared = shared;
    b_speedup = 1.0;
  }

let measure_cell ?(sizes = batch_sizes) family k =
  let rows = List.map (measure family k) sizes in
  let base =
    match rows with r :: _ -> r.b_seeds_s | [] -> assert false
  in
  List.iter (fun r -> r.b_speedup <- r.b_seeds_s /. Float.max 1e-9 base) rows;
  rows

(* ---- report ---- *)

let json_of_row r =
  Json.Obj
    [
      ("family", Json.String r.b_family);
      ("k", Json.Int r.b_k);
      ("batch", Json.Int r.b_s);
      ("wall_s", Json.Float r.b_wall);
      ("seeds_per_sec", Json.Float r.b_seeds_s);
      ("collapsed", Json.Bool r.b_collapsed);
      ("shared_world", Json.Bool r.b_shared);
      ("speedup_vs_s1", Json.Float r.b_speedup);
    ]

let run () =
  header "E22 (seed batching)"
    "seed batches: identical-lane collapse and sequential lanes";
  let rows =
    List.concat_map (fun family -> List.concat_map (measure_cell family) ks)
      families
    @
    let family, k = random_cell in
    measure_cell ~sizes:[ 1; random_batch ] family k
  in
  let t =
    Table.create
      ~caption:
        "seeds/sec of S seeds of one config: S=1 is sequential \
         Scenario.run; collapsed = identical-lane collapse proved"
      [
        ("family", Table.Left); ("k", Table.Right); ("S", Table.Right);
        ("wall/batch", Table.Right); ("seeds/s", Table.Right);
        ("collapsed", Table.Left); ("speedup", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.b_family; Table.fint r.b_k; Table.fint r.b_s;
          Printf.sprintf "%.4fs" r.b_wall;
          Printf.sprintf "%.0f" r.b_seeds_s;
          Table.fbool r.b_collapsed;
          Table.fratio r.b_speedup;
        ])
    rows;
  Table.print t;
  Engine_report.write ~path:report_path
    (Json.Obj
       (Engine_report.meta ~seed ~workers:1
       @ [
           ("label", Json.String "E22 seed-batched execution");
           ("scale", Json.String (scale_name ()));
           ("cores", Json.Int (Domain.recommended_domain_count ()));
           ("configs", Json.List (List.map json_of_row rows));
         ]));
  Printf.printf "report written to %s\n" report_path

(* ---- smoke (--smoke / @runtest-quick) ----

   A tiny batch that must agree byte-for-byte with its sequential
   counterpart, and the collapse must engage on a deterministic
   family. *)
let smoke () =
  let t =
    Scenario.make ~algo:"bfdn" ~k:8 ~seed:3 ~batch_seeds:4
      (Scenario.world
         ~params:[ ("depth_hint", Param.Int 10); ("n", Param.Int 120) ]
         "binary")
  in
  let r = Seed_batch.run t in
  let batch_ok =
    Array.length r.Seed_batch.outcomes = 4
    && Array.for_all2
         (fun o l -> Scenario.equal_outcome o (Scenario.run l))
         r.Seed_batch.outcomes
         (Array.init 4 (Scenario.unbatch t))
  in
  batch_ok && r.Seed_batch.collapsed && r.Seed_batch.shared_world

(* ---- perf gate (--perf-gate) ----

   Three kinds of rows:
   - committed-baseline floors (0.6x) on a subset of seeds/sec configs,
     like every other gate;
   - the machine-independent collapse claim, re-measured fresh: S=64
     seeds/sec must be >= 2x the S=1 baseline measured in the same
     process — this holds on any machine because it is a ratio;
   - the sequential-lane claim, also a same-process ratio: on the
     non-collapsing random cell, S=8 seeds/sec must be >= 0.8x S=1
     ([fastest_speedup]). *)

let gate_floor = 0.6
let batch_speedup_floor = 2.0
let sequential_lanes_floor = 0.8
let gate_subset = [ ("comb", 64); ("binary", 512) ]

(* Seeds/sec of an S-seed batch over S=1 from the fastest execution of
   each, with the two sides alternating: ambient load on a shared
   machine only ever slows an execution down, and it reaches both sides
   of an alternating pair alike. Window-averaged rows swing by +-15%
   between passes here; this ratio holds within a few percent. *)
let fastest_speedup family k s =
  let one = spec family k and batch = spec ~batch_seeds:s family k in
  match
    repeat ~budget:(3.0 *. min_total ())
      [| (fun () -> exec one); (fun () -> exec batch) |]
  with
  | [| (_, t1); (_, ts) |] ->
      float_of_int s *. t1.best /. Float.max 1e-9 ts.best
  | _ -> assert false

let perf_gate () =
  scale := Normal;
  header "PERF GATE (batch)"
    (Printf.sprintf
       "seeds/s >= %.2fx committed %s; S=64 >= %.1fx S=1; random S=8 >= \
        %.1fx S=1"
       gate_floor report_path batch_speedup_floor sequential_lanes_floor);
  List.iter
    (fun (family, k) ->
      let rows = measure_cell family k in
      (* committed floors on the S=1 and S=64 rows *)
      List.iter
        (fun r ->
          if r.b_s = 1 || r.b_s = 64 then
            let committed =
              committed report_path "seeds_per_sec"
                ~where:
                  [
                    ("family", Json.String family); ("k", Json.Int k);
                    ("batch", Json.Int r.b_s);
                  ]
            in
            check_gate ~gate:"E22"
              ~name:(Printf.sprintf "%s k=%d S=%d seeds/s" family k r.b_s)
              r.b_seeds_s
              (Relative { committed; floor = gate_floor }))
        rows;
      (* the batching claim itself, machine-independent *)
      let s64 = List.find (fun r -> r.b_s = 64) rows in
      check_gate ~gate:"E22"
        ~name:(Printf.sprintf "%s k=%d S=64 speedup vs S=1" family k)
        s64.b_speedup (At_least batch_speedup_floor))
    gate_subset;
  let family, k = random_cell in
  check_gate ~gate:"E22"
    ~name:(Printf.sprintf "%s k=%d S=%d speedup vs S=1" family k random_batch)
    (fastest_speedup family k random_batch)
    (At_least sequential_lanes_floor)

(* ---- determinism lane (--det-check --jobs=N) ----

   Sequential Scenario.run, the N-worker job pool and Seed_batch must
   agree execution-for-execution over a matrix that covers deterministic
   and randomized families, draw-free and drawing policies, fault
   schedules and the collapse/fallback tiers: equal outcomes, and equal
   digests of every round's frame (round, explored, dangling, every
   robot's position). The n = 5000 row sits between the small ones, so
   node-store pages of different lengths are recycled in turn on every
   domain that runs the lanes. The matrix ends with every generator
   family under bfdn at k in {4, 64} over two seeds, and cte, offline and
   bfdn-wr on random at k in {4, 64}. *)

let det_specs () =
  let w family n dh = Scenario.world
      ~params:[ ("depth_hint", Param.Int dh); ("n", Param.Int n) ]
      family
  in
  [
    ("binary/bfdn S=6", Scenario.make ~algo:"bfdn" ~k:8 ~seed:100 ~batch_seeds:6 (w "binary" 250 10));
    ("comb/cte S=5", Scenario.make ~algo:"cte" ~k:8 ~seed:200 ~batch_seeds:5 (w "comb" 250 20));
    ("random/bfdn S=6", Scenario.make ~algo:"bfdn" ~k:8 ~seed:300 ~batch_seeds:6 (w "random" 220 10));
    ("random/bfdn n=5000 S=3", Scenario.make ~algo:"bfdn" ~k:8 ~seed:700 ~batch_seeds:3 (w "random" 5000 20));
    ( "spider/random-open S=4",
      Scenario.make ~algo:"bfdn"
        ~algo_params:[ ("policy", Param.String "random-open") ]
        ~k:8 ~seed:400 ~batch_seeds:4 (w "spider" 220 14) );
    ( "binary/ft+crashes S=4",
      Scenario.make ~algo:"bfdn"
        ~algo_params:[ ("fault_tolerant", Param.Bool true) ]
        ~faults:[ ("crashes", Param.String "1@8,3@20+25") ]
        ~k:8 ~seed:500 ~batch_seeds:4 (w "binary" 220 10) );
    ( "adversarial S=3",
      Scenario.make ~algo:"bfdn" ~k:4 ~seed:600 ~batch_seeds:3
        (Scenario.adversarial ~policy:"corridor" ~capacity:150
           ~depth_budget:12) );
  ]
  @ List.concat_map
      (fun family ->
        List.map
          (fun k ->
            ( Printf.sprintf "%s/bfdn k=%d S=2" family k,
              Scenario.make ~algo:"bfdn" ~k ~seed ~batch_seeds:2
                (w family 600 20) ))
          [ 4; 64 ])
      Tree_gen.families
  @ List.concat_map
      (fun algo ->
        List.map
          (fun k ->
            ( Printf.sprintf "random/%s k=%d" algo k,
              Scenario.make ~algo ~k ~seed (w "random" 600 20) ))
          [ 4; 64 ])
      [ "cte"; "offline"; "bfdn-wr" ]

(* Folds the frames of consecutive executions into one digest each: a
   frame from another execution view than the last starts the next
   digest. *)
type frame_log = {
  buf : Buffer.t;
  mutable current : Exec_env.t option;
  mutable digests : Digest.t list;  (** finished executions, newest first *)
}

let frame_log () = { buf = Buffer.create 4096; current = None; digests = [] }

let flush log =
  if Option.is_some log.current then begin
    log.digests <- Digest.string (Buffer.contents log.buf) :: log.digests;
    Buffer.clear log.buf
  end

let record log (x : Exec_env.t) =
  (match log.current with
  | Some y when y == x -> ()
  | _ ->
      flush log;
      log.current <- Some x);
  let f = x.Exec_env.frame () in
  let add i = Buffer.add_int64_le log.buf (Int64.of_int i) in
  add f.Bfdn_sim.Trace.round;
  add f.Bfdn_sim.Trace.explored;
  add f.Bfdn_sim.Trace.dangling;
  Array.iter add f.Bfdn_sim.Trace.positions

let digests log =
  flush log;
  log.current <- None;
  List.rev log.digests

(* One plain run and the digest of its frames. *)
let digested_run spec =
  let log = frame_log () in
  let o = Scenario.run ~on_round:(record log) spec in
  match digests log with
  | [ d ] -> (o, d)
  | ds ->
      failwith
        (Printf.sprintf "%s: %d executions in one run" (Scenario.describe spec)
           (List.length ds))

let det_check ~jobs () =
  header "DET CHECK"
    (Printf.sprintf "sequential vs %d-worker pool vs seed batch" jobs);
  let specs = det_specs () in
  let lanes_of (_, t) = List.init t.Scenario.batch_seeds (Scenario.unbatch t) in
  let all_lanes = Array.of_list (List.concat_map lanes_of specs) in
  (* Every lane of every row through one sequence and one pool, so each
     domain recycles pages across rows. *)
  let seq = Array.map digested_run all_lanes in
  let pooled = Batch.map ~workers:jobs digested_run all_lanes in
  let same (o, d) (o', d') = Scenario.equal_outcome o o' && Digest.equal d d' in
  let ok_all = ref true in
  let offset = ref 0 in
  List.iter
    (fun ((label, t) as row) ->
      let s = List.length (lanes_of row) in
      let seq_row = Array.sub seq !offset s in
      let pool_ok =
        Array.for_all2
          (fun r res -> match res with Ok r' -> same r r' | Error _ -> false)
          seq_row
          (Array.sub pooled !offset s)
      in
      offset := !offset + s;
      let batch_ok =
        let log = frame_log () in
        let r = Seed_batch.run ~on_round:(record log) t in
        let ds = Array.of_list (digests log) in
        (* A collapsed batch executes lane 0 only and replicates it. *)
        let ds =
          if r.Seed_batch.collapsed && Array.length ds = 1 then
            Array.make s ds.(0)
          else ds
        in
        Array.length ds = s
        && Array.for_all2 same seq_row (Array.combine r.Seed_batch.outcomes ds)
      in
      let ok = pool_ok && batch_ok in
      if not ok then ok_all := false;
      Printf.printf "  %-26s pool=%s batch=%s\n" label
        (if pool_ok then "ok" else "FAIL")
        (if batch_ok then "ok" else "FAIL"))
    specs;
  if !ok_all then Printf.printf "det check: all lanes agree\n"
  else Printf.printf "det check: DISAGREEMENT\n";
  !ok_all
