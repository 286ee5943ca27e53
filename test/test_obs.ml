(* Tests for the observability subsystem: the JSON emitter's float
   round-trip, the bounded ring, histogram bucketing, cross-registry
   merging, and probes wired through the runner and the engine pool. *)

module Json = Bfdn_obs.Json
module Metrics = Bfdn_obs.Metrics
module Probe = Bfdn_obs.Probe
module Sink = Bfdn_obs.Sink
module Ring = Bfdn_obs.Sink.Ring
module Env = Bfdn_sim.Env
module Exec_env = Bfdn_sim.Exec_env
module Tree = Bfdn_trees.Tree
module Batch = Bfdn_engine.Batch

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkf = Alcotest.(check (float 0.0))

(* A committed example spec: one level up under [dune runtest] (the test
   runs in _build/default/test, where its deps are copied), else from the
   repository root, as [dune exec test/test_main.exe] runs it. *)
let load_example name =
  let path = "examples/" ^ name ^ ".json" in
  let path = if Sys.file_exists ("../" ^ path) then "../" ^ path else path in
  Bfdn_scenario.Scenario.load path

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

(* ---- json ---- *)

let test_json_float_roundtrip () =
  (* The %.6g emitter this replaced lost 0.1 to 0.100000; every finite
     double must now parse back bit-for-bit. *)
  List.iter
    (fun f ->
      let s = Json.float_to_string f in
      checkb (Printf.sprintf "%h round-trips via %s" f s) true
        (float_of_string s = f))
    [
      0.1; 1.0 /. 3.0; 4.0 *. atan 1.0; 1e-308; 4e-324; max_float;
      min_float; 1e22; 123456.789012345; -0.0; 0.0; 2.5; 667010.0;
    ]

let test_json_nonfinite_null () =
  checks "nan" "null" (Json.to_string (Json.Float nan));
  checks "inf" "null" (Json.to_string (Json.Float infinity));
  checks "neg inf" "null" (Json.to_string (Json.Float neg_infinity))

let test_json_shapes () =
  checks "obj"
    {|{"a":1,"b":[true,null,"x\"y"]}|}
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.Int 1);
            ("b", Json.List [ Json.Bool true; Json.Null; Json.String "x\"y" ]);
          ]));
  checks "escapes" "\\\"\\\\\\n\\t" (Json.escape "\"\\\n\t")

let test_json_parse () =
  let ok s = match Json.of_string s with Ok j -> j | Error e -> failwith e in
  checkb "scalars" true
    (ok "true" = Json.Bool true
    && ok "null" = Json.Null
    && ok "-42" = Json.Int (-42)
    && ok "2.5e2" = Json.Float 250.0);
  (* ints stay ints, anything with a fraction or exponent is a float *)
  checkb "int vs float" true
    (ok "7" = Json.Int 7 && ok "7.0" = Json.Float 7.0 && ok "7e0" = Json.Float 7.0);
  checkb "nested" true
    (ok {| { "a" : [1, {"b": false}], "c": "x" } |}
    = Json.Obj
        [
          ("a", Json.List [ Json.Int 1; Json.Obj [ ("b", Json.Bool false) ] ]);
          ("c", Json.String "x");
        ]);
  checks "string escapes" "\"\\\n\t/"
    (match ok {|"\"\\\n\t\/"|} with Json.String s -> s | _ -> "?");
  checks "unicode escape" "\xcf\x80\xe2\x89\xa4A"
    (match ok {|"\u03c0\u2264A"|} with Json.String s -> s | _ -> "?");
  List.iter
    (fun bad ->
      checkb (Printf.sprintf "%S rejected" bad) true
        (Result.is_error (Json.of_string bad)))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{'a':1}" ]

let test_json_parse_inverts_emit () =
  (* Every value the emitter can produce (minus non-finite floats, which
     emit as null) parses back constructor-for-constructor. *)
  let samples =
    [
      Json.Null; Json.Bool false; Json.Int max_int; Json.Int min_int;
      Json.Float 0.1; Json.Float (-1e-308); Json.Float 667010.0;
      Json.String ""; Json.String "a\"b\\c\nd\te\x01f";
      Json.String "π ≤ 𝄞"; (* 2-, 3- and 4-byte UTF-8 *)
      Json.List [];
      Json.Obj
        [
          ("k", Json.List [ Json.Int 1; Json.Null ]);
          ("nested", Json.Obj [ ("x", Json.Float 2.5) ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      let s = Json.to_string j in
      checkb (Printf.sprintf "%s round-trips" s) true (Json.of_string s = Ok j))
    samples;
  checkb "member" true
    (Json.member "b" (Json.Obj [ ("a", Json.Int 1); ("b", Json.Int 2) ])
     = Some (Json.Int 2)
    && Json.member "z" (Json.Obj [ ("a", Json.Int 1) ]) = None
    && Json.member "a" (Json.List []) = None)

(* ---- ring ---- *)

let test_ring_wraps () =
  let r = Ring.create 3 in
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5 ];
  checki "capacity" 3 (Ring.capacity r);
  checki "length" 3 (Ring.length r);
  checki "pushed" 5 (Ring.pushed r);
  checki "dropped" 2 (Ring.dropped r);
  checkb "keeps newest, oldest-first" true (Ring.to_list r = [ 3; 4; 5 ]);
  checkb "last 2" true (Ring.last r 2 = [ 4; 5 ]);
  checkb "last past length" true (Ring.last r 10 = [ 3; 4; 5 ]);
  checkb "last 0" true (Ring.last r 0 = [])

let test_ring_under_capacity () =
  let r = Ring.create 8 in
  Ring.push r 42;
  checki "length" 1 (Ring.length r);
  checki "dropped" 0 (Ring.dropped r);
  checkb "list" true (Ring.to_list r = [ 42 ])

let drain r c =
  let rec go acc =
    match Ring.next r c with Some x -> go (x :: acc) | None -> List.rev acc
  in
  go []

let test_ring_cursor () =
  let r = Ring.create 4 in
  let early = Ring.cursor r and lagging = Ring.cursor r in
  List.iter (Ring.push r) [ 1; 2 ];
  checkb "reads in order" true (Ring.next r early = Some 1);
  List.iter (Ring.push r) [ 3; 4; 5; 6; 7 ];
  Ring.close r;
  Ring.push r 8;
  checki "pushes after close are dropped" 7 (Ring.pushed r);
  checkb "a cursor behind the ring resumes at the oldest retained" true
    (drain r early = [ 4; 5; 6; 7 ]);
  checkb "reading does not consume" true (drain r lagging = [ 4; 5; 6; 7 ]);
  checkb "a fresh cursor sees the same frames" true
    (drain r (Ring.cursor r) = [ 4; 5; 6; 7 ])

let test_ring_close_wakes_reader () =
  let r = Ring.create 4 in
  let got = ref [ -1 ] in
  let reader = Thread.create (fun () -> got := drain r (Ring.cursor r)) () in
  Ring.push r 1;
  Thread.delay 0.02;
  Ring.close r;
  Thread.join reader;
  checkb "blocked reader gets the frame, then end of stream" true
    (!got = [ 1 ])

(* ---- metrics ---- *)

let test_counter_gauge () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  Metrics.add c 4;
  checki "counter" 5 (Metrics.value c);
  let g = Metrics.gauge m "g" in
  Metrics.set g 2.5;
  checkf "gauge" 2.5 (Metrics.gauge_value g);
  checkb "same handle" true (Metrics.counter m "c" == c);
  checkb "kind clash" true
    (raises_invalid (fun () -> ignore (Metrics.gauge m "c")))

let test_histogram_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~bounds:[| 1.0; 2.0; 4.0 |] m "h" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 4.0; 5.0 ];
  checki "buckets incl overflow" 4 (Metrics.num_buckets h);
  (* Bounds are inclusive upper bounds: 1.0 lands in the first bucket,
     4.0 in the last finite one, 5.0 overflows. *)
  checki "le 1" 2 (Metrics.bucket_count h 0);
  checki "le 2" 1 (Metrics.bucket_count h 1);
  checki "le 4" 1 (Metrics.bucket_count h 2);
  checki "overflow" 1 (Metrics.bucket_count h 3);
  checkb "overflow le" true (Metrics.bucket_le h 3 = infinity);
  checki "count" 5 (Metrics.hist_count h);
  checkf "sum" 12.0 (Metrics.hist_sum h);
  checkf "min" 0.5 (Metrics.hist_min h);
  checkf "max" 5.0 (Metrics.hist_max h)

let test_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  let ca = Metrics.counter a "n" and cb = Metrics.counter b "n" in
  Metrics.add ca 3;
  Metrics.add cb 4;
  let ha = Metrics.histogram ~bounds:[| 1.0; 2.0 |] a "h" in
  let hb = Metrics.histogram ~bounds:[| 1.0; 2.0 |] b "h" in
  Metrics.observe ha 0.5;
  Metrics.observe hb 1.5;
  Metrics.observe hb 9.0;
  let only_b = Metrics.counter b "only_b" in
  Metrics.incr only_b;
  Metrics.merge_into ~into:a b;
  checki "counters add" 7 (Metrics.value ca);
  let h = Option.get (Metrics.find_histogram a "h") in
  checki "hist counts add" 3 (Metrics.hist_count h);
  checki "bucket 0" 1 (Metrics.bucket_count h 0);
  checki "bucket 1" 1 (Metrics.bucket_count h 1);
  checki "overflow" 1 (Metrics.bucket_count h 2);
  checkf "min over both" 0.5 (Metrics.hist_min h);
  checkf "max over both" 9.0 (Metrics.hist_max h);
  checki "missing metrics registered" 1
    (Metrics.value (Option.get (Metrics.find_counter a "only_b")))

let test_merge_bounds_mismatch () =
  let a = Metrics.create () and b = Metrics.create () in
  ignore (Metrics.histogram ~bounds:[| 1.0; 2.0 |] a "h");
  ignore (Metrics.histogram ~bounds:[| 1.0; 3.0 |] b "h");
  checkb "bounds mismatch raises" true
    (raises_invalid (fun () -> Metrics.merge_into ~into:a b))

(* ---- probes through the runner ---- *)

let small () = Tree.of_parents [| -1; 0; 0; 1; 1; 2 |]

let test_probe_counters_match_runner () =
  let m = Metrics.create () in
  let probe = Probe.of_metrics m in
  let env = Env.create (small ()) ~k:2 in
  let algo = Bfdn.Bfdn_algo.algo (Bfdn.Bfdn_algo.make ~probe env) in
  let r = Exec_env.run ~probe (Exec_env.of_env algo env) in
  let cval name = Metrics.value (Option.get (Metrics.find_counter m name)) in
  checkb "explored" true r.Exec_env.explored;
  checki "rounds counter" r.Exec_env.rounds (cval "rounds");
  checki "moves counter" r.Exec_env.moves (cval "moves");
  checki "edge_events counter" r.Exec_env.edge_events (cval "edge_events");
  (* n - 1 nodes are revealed after the root. *)
  checki "reveals counter" 5 (cval "reveals");
  checkb "phases timed" true
    (cval "select_ns" >= 0 && cval "apply_ns" >= 0
    && cval "finished_check_ns" > 0);
  let idle = Option.get (Metrics.find_histogram m "idle_robots") in
  checki "one idle sample per round" r.Exec_env.rounds
    (Metrics.hist_count idle);
  (* The reanchor summary flushes the algorithm's own per-depth counts
     once, when finished first holds. *)
  let rd = Option.get (Metrics.find_histogram m "reanchor_depth") in
  checki "summary fills reanchor_depth" (cval "reanchors")
    (Metrics.hist_count rd)

let test_reanchor_summary_once () =
  let totals = ref [] in
  let probe =
    Probe.make
      ~on_reanchor_summary:(fun ~total ~by_depth ->
        totals := (total, Array.fold_left ( + ) 0 by_depth) :: !totals)
      ()
  in
  let env = Env.create (small ()) ~k:2 in
  let t = Bfdn.Bfdn_algo.make ~probe env in
  let a = Bfdn.Bfdn_algo.algo t in
  ignore (Exec_env.run ~probe (Exec_env.of_env a env));
  (* finished keeps being true afterwards; calling it again must not
     re-send. *)
  checkb "still finished" true (a.Exec_env.finished env);
  match !totals with
  | [ (total, by_depth_sum) ] ->
      checki "summary total matches algo counter" (Bfdn.Bfdn_algo.reanchors_total t) total;
      checki "by_depth sums to total" total by_depth_sum
  | l -> Alcotest.failf "summary fired %d times" (List.length l)

let test_probe_does_not_perturb () =
  let run probed =
    let probe =
      if probed then Probe.of_metrics (Metrics.create ()) else Probe.noop
    in
    let env = Env.create (small ()) ~k:3 in
    Exec_env.run ~probe (Exec_env.of_env (Bfdn_baselines.Cte.make env) env)
  in
  let a = run false and b = run true in
  checki "same rounds" a.Exec_env.rounds b.Exec_env.rounds;
  checki "same moves" a.Exec_env.moves b.Exec_env.moves;
  checki "same events" a.Exec_env.edge_events b.Exec_env.edge_events;
  (* Every compatible algorithm on every world shape, through
     Scenario.run: the one round loop, plain and probed, must produce
     identical full outcomes. Async-only algorithms on the tree world
     take the continuous-time path. *)
  let module Scenario = Bfdn_scenario.Scenario in
  let module Param = Bfdn_scenario.Param in
  let module Algo_registry = Bfdn_scenario.Algo_registry in
  let tree_params = [ ("depth_hint", Param.Int 8); ("n", Param.Int 150) ] in
  let worlds =
    [
      ("eager tree", Scenario.world ~params:tree_params "comb");
      ( "lazy tree",
        Scenario.world
          ~params:(("scale", Param.String "lazy") :: tree_params)
          "binary" );
      ( "adversarial",
        Scenario.adversarial ~policy:"corridor" ~capacity:120 ~depth_budget:10
      );
      ( "grid",
        Scenario.world
          ~params:
            [
              ("height", Param.Int 8);
              ("obstacles", Param.Int 3);
              ("width", Param.Int 10);
            ]
          "grid" );
    ]
  in
  let ran = Hashtbl.create 8 in
  List.iter
    (fun (world, instance) ->
      List.iter
        (fun (e : Algo_registry.entry) ->
          let spec =
            Scenario.make ~algo:e.name ~k:4 ~seed:7 ~max_rounds:50_000 instance
          in
          if Result.is_ok (Scenario.validate spec) then begin
            let path =
              if (Algo_registry.caps e).tree || world <> "eager tree" then world
              else "async"
            in
            Hashtbl.replace ran path ();
            let plain = Scenario.run ~probe:Probe.noop spec in
            let probed =
              Scenario.run ~probe:(Probe.of_metrics (Metrics.create ())) spec
            in
            checkb
              (Printf.sprintf "%s on %s: probed outcome identical" e.name path)
              true
              (Scenario.equal_outcome plain probed)
          end)
        Algo_registry.all)
    worlds;
  List.iter
    (fun path -> checkb (path ^ " covered") true (Hashtbl.mem ran path))
    [ "eager tree"; "lazy tree"; "adversarial"; "grid"; "async" ]

(* ---- the probe's observations, pinned ---- *)

(* What a probed [Scenario.run] reports: the number of [on_round] calls,
   a digest of their argument sequence, and a digest of the registry
   JSON without the wall-clock [*_ns] counters. The values were captured
   when each environment still computed its own per-round deltas; the
   round loop must report exactly the same sequence. *)
let observe spec =
  let m = Metrics.create () in
  let base = Probe.of_metrics m in
  let calls = ref 0 and seq = Buffer.create 4096 in
  let on_round ~round ~moved ~idle ~revealed ~edge_events =
    incr calls;
    Printf.bprintf seq "%d %d %d %d %d\n" round moved idle revealed edge_events;
    base.Probe.on_round ~round ~moved ~idle ~revealed ~edge_events
  in
  ignore (Bfdn_scenario.Scenario.run ~probe:{ base with Probe.on_round } spec);
  let timed name = String.ends_with ~suffix:"_ns" name in
  let registry =
    match Metrics.to_json m with
    | Json.Obj kvs -> Json.Obj (List.filter (fun (k, _) -> not (timed k)) kvs)
    | j -> j
  in
  let hex s = Digest.to_hex (Digest.string s) in
  Printf.sprintf "%d %s %s" !calls (hex (Buffer.contents seq))
    (hex (Json.to_string registry))

let test_probe_observations_pinned () =
  let module Scenario = Bfdn_scenario.Scenario in
  let module Param = Bfdn_scenario.Param in
  let example name =
    match load_example name with
    | Ok spec -> ("examples/" ^ name, spec)
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  let cases =
    [
      example "bfdn_comb";
      example "bfdn_crash";
      example "bfdn_grid";
      example "bfdn_async";
      example "cte_hidden_path";
      ( "lazy binary",
        Scenario.make ~k:64 ~seed:5
          (Scenario.world
             ~params:[ ("n", Param.Int 20_000); ("scale", Param.String "lazy") ]
             "binary") );
      ( "random mask",
        Scenario.make ~k:8 ~seed:9
          ~faults:[ ("mask", Param.String "random"); ("mask_p", Param.Float 0.3) ]
          (Scenario.world ~params:[ ("n", Param.Int 400) ] "random") );
      ( "cte on trap",
        Scenario.make ~algo:"cte" ~k:16 ~seed:4
          (Scenario.world ~params:[ ("n", Param.Int 500) ] "trap") );
      ( "thick-comb adversary",
        Scenario.make ~k:8 ~seed:3
          (Scenario.adversarial ~policy:"thick-comb" ~capacity:2000
             ~depth_budget:60) );
    ]
  in
  let pinned =
    [
      ( "examples/bfdn_comb",
        "202 00d8df09cdc7867f55890424bda0037e db223a4f96fc8e092c586b96818913be" );
      ( "examples/bfdn_crash",
        "279 f9862e38ee4e35100d0a132c147b8206 e88f23e2ee8b6edf3af5c05de388ba8b" );
      ( "examples/bfdn_grid",
        "62 e069c1f09a33b4a9cbffe4e68f4ccf29 7ca8a9fd69349225b07092fbf3526119" );
      ( "examples/bfdn_async",
        "170 4910db03420fd73346e190f4b6669187 db6588a2b812f545c3554ead33806085" );
      ( "examples/cte_hidden_path",
        "326 02d7ef18c5d966f5f6169623c6a5df33 56776526ecf17b6356ffd82c8da59aed" );
      ( "lazy binary",
        "1059 bc8acfb0285884c48df81878fb1e692a d9626e9cb0dc8c1a56e5b21f79e2e43d" );
      ( "random mask",
        "187 218ec7c6c53f0db8edcc081b43ef83e5 3457c195bbc1862be3e9778145e9b3b3" );
      ( "cte on trap",
        "236 a896ba6302535f92ed2e786fce71be9c 35c4f4076d053bd9bc30c3683b22179c" );
      ( "thick-comb adversary",
        "215 7539e6da6a2071f1b639391b2d40a4b2 e0587c513afb54e693c0deca5cc426c8" );
    ]
  in
  List.iter
    (fun (name, spec) ->
      (match Scenario.validate spec with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e);
      checks name (List.assoc name pinned) (observe spec))
    cases

(* ---- probes through the engine pool ---- *)

let pool_jobs_counted workers =
  let regs = Array.init (max 1 workers) (fun _ -> Metrics.create ()) in
  let probe = Probe.pool_probe regs in
  let xs = Array.init 20 (fun i -> i) in
  let res = Batch.map ~probe ~workers (fun x -> x * x) xs in
  let merged = Metrics.create () in
  Array.iter (fun reg -> Metrics.merge_into ~into:merged reg) regs;
  let count name =
    match Metrics.find_histogram merged name with
    | Some h -> Metrics.hist_count h
    | None -> 0
  in
  (res, count "job_s", count "queue_wait_s")

let test_pool_probe_aggregate_invariant () =
  (* The per-worker split varies with scheduling, but the merged totals
     must equal the job count whatever the worker count. *)
  let res1, jobs1, waits1 = pool_jobs_counted 1 in
  let res3, jobs3, waits3 = pool_jobs_counted 3 in
  checki "jobs observed (1 worker)" 20 jobs1;
  checki "jobs observed (3 workers)" 20 jobs3;
  checki "waits observed (1 worker)" 20 waits1;
  checki "waits observed (3 workers)" 20 waits3;
  checkb "results identical across worker counts" true (res1 = res3);
  checkb "results correct" true
    (Array.to_list res1
    = List.init 20 (fun i -> Ok (i * i)))

(* ---- sink ---- *)

let test_dashboard_renders () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "rounds") 7;
  Metrics.observe (Metrics.histogram ~bounds:[| 1.0 |] m "lat") 0.5;
  let s = Sink.dashboard ~title:"hot loop" m in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  checkb "has title" true (contains "hot loop");
  checkb "has counter" true (contains "rounds");
  checkb "has histogram" true (contains "lat")

(* ---- GC probe ---- *)

let test_gc_probe_records () =
  let reg = Metrics.create () in
  let gp = Bfdn_obs.Gc_probe.create reg in
  (* Force at least one major cycle between ticks, then tick: the
     interval must land in the pause histogram and the cycle counter. *)
  Bfdn_obs.Gc_probe.tick gp;
  Gc.full_major ();
  Bfdn_obs.Gc_probe.tick gp;
  let cycles = Bfdn_obs.Gc_probe.major_cycles gp in
  checkb "alarm saw the forced major cycle" true (cycles >= 1);
  (match Metrics.find_histogram reg "gc_pause_ns" with
  | None -> Alcotest.fail "gc_pause_ns not registered"
  | Some h ->
      checkb "pause recorded" true (Metrics.hist_count h >= 1);
      checkb "pause positive" true (Metrics.hist_sum h > 0.));
  (match Metrics.find_counter reg "gc_major_cycles" with
  | None -> Alcotest.fail "gc_major_cycles not registered"
  | Some c -> checkb "counter folded" true (Metrics.value c >= 1));
  Bfdn_obs.Gc_probe.snapshot gp;
  checkb "snapshot exports quick_stat gauges" true
    (Metrics.gauge_value (Metrics.gauge reg "gc_major_collections") >= 1.);
  Bfdn_obs.Gc_probe.dispose gp;
  Bfdn_obs.Gc_probe.dispose gp (* idempotent *)

let test_gc_probe_quiet_tick () =
  let reg = Metrics.create () in
  let gp = Bfdn_obs.Gc_probe.create reg in
  (* Drain any cycle pending from test setup, then two adjacent ticks:
     an interval without a major-cycle end must not record a pause. *)
  Bfdn_obs.Gc_probe.tick gp;
  Bfdn_obs.Gc_probe.tick gp;
  let before =
    match Metrics.find_histogram reg "gc_pause_ns" with
    | Some h -> Metrics.hist_count h
    | None -> 0
  in
  Bfdn_obs.Gc_probe.tick gp;
  let after =
    match Metrics.find_histogram reg "gc_pause_ns" with
    | Some h -> Metrics.hist_count h
    | None -> 0
  in
  checkb "no pause without a cycle" true (after <= before + 1);
  Bfdn_obs.Gc_probe.dispose gp

(* ---- spans ---- *)

module Span = Bfdn_obs.Span
module Log = Bfdn_obs.Log
module Prometheus = Bfdn_obs.Prometheus
module Tail = Bfdn_obs.Tail

let test_span_tree () =
  let emitted = ref [] in
  let sp =
    Span.create ~sink:(fun j -> emitted := j :: !emitted) ~trace_id:"t1" ()
  in
  checkb "enabled" true (Span.enabled sp);
  checks "trace id" "t1" (Span.trace_id sp);
  let root = Span.start sp "request" in
  let child = Span.start ~parent:root sp "parse" in
  Span.finish ~attrs:[ ("ok", Json.Bool true) ] sp child;
  let open_child = Span.start ~parent:root sp "queue" in
  checki "spans retained" 3 (Span.length sp);
  checki "nothing dropped" 0 (Span.dropped sp);
  (* One sink record per finished span, carrying trace/span/parent. *)
  checki "one emission" 1 (List.length !emitted);
  (match !emitted with
  | [ j ] ->
      checkb "sink record" true
        (Json.member "trace" j = Some (Json.String "t1")
        && Json.member "name" j = Some (Json.String "parse")
        && Json.member "parent" j = Some (Json.Int root));
  | _ -> Alcotest.fail "expected one sink record");
  (* The tree nests parse and queue under request; queue is open. *)
  (match Json.member "spans" (Span.tree_json sp) with
  | Some (Json.List [ r ]) -> (
      checkb "root name" true
        (Json.member "name" r = Some (Json.String "request"));
      match Json.member "children" r with
      | Some (Json.List [ c1; c2 ]) ->
          checkb "first child is parse" true
            (Json.member "name" c1 = Some (Json.String "parse"));
          checkb "open child marked" true
            (Json.member "open" c2 = Some (Json.Bool true))
      | _ -> Alcotest.fail "expected two children")
  | _ -> Alcotest.fail "expected one root span");
  Span.finish sp open_child;
  Span.finish sp root;
  checki "all emitted" 3 (List.length !emitted)

let test_span_finish_dur_ns () =
  let emitted = ref [] in
  let sp =
    Span.create ~sink:(fun j -> emitted := j :: !emitted) ~trace_id:"t" ()
  in
  let s = Span.start sp "phase" in
  Span.finish ~dur_ns:42 sp s;
  (match Json.member "spans" (Span.tree_json sp) with
  | Some (Json.List [ j ]) ->
      checkb "given duration, not wall" true
        (Json.member "dur_ns" j = Some (Json.Int 42))
  | _ -> Alcotest.fail "expected one span");
  checkb "sink record carries it too" true
    (match !emitted with
    | [ j ] -> Json.member "dur_ns" j = Some (Json.Int 42)
    | _ -> false)

let test_span_disabled_noop () =
  let sp = Span.disabled in
  checkb "disabled" false (Span.enabled sp);
  let s = Span.start sp "x" in
  checkb "start returns none" true (s = Span.none);
  Span.finish ~dur_ns:5 sp s;
  checki "nothing recorded" 0 (Span.length sp)

(* Tracing disabled costs nothing because [Probe.traced] hands back the
   metrics probe itself — the same closures, not a wrapper — and a closer
   that records nothing. This identity is what E20's disabled side
   relies on; it is checked here rather than timed. *)
let test_traced_disabled_identity () =
  let reg = Metrics.create () in
  let probe = Probe.of_metrics reg in
  let names = Metrics.names reg in
  let p, close = Probe.traced Span.disabled ~parent:Span.none reg probe in
  checkb "the metrics probe, physically" true (p == probe);
  close ~state:"done";
  checki "closer records no span" 0 (Span.length Span.disabled);
  checkb "closer registers no metric" true (Metrics.names reg = names)

let test_span_capacity () =
  let sp = Span.create ~capacity:2 ~trace_id:"t" () in
  let a = Span.start sp "a" in
  let b = Span.start sp "b" in
  let c = Span.start sp "c" in
  checkb "over-capacity start returns none" true (c = Span.none);
  checki "retained" 2 (Span.length sp);
  checki "dropped counted" 1 (Span.dropped sp);
  Span.finish sp a;
  Span.finish sp b;
  Span.finish sp c;
  match Json.member "dropped" (Span.tree_json sp) with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "tree_json must report dropped"

(* ---- log ---- *)

let test_log_levels () =
  let lines = ref [] in
  let log = Log.create ~level:Log.Warn (fun j -> lines := j :: !lines) in
  Log.debug log "nope";
  Log.info log "nope";
  Log.warn log ~trace:"t9" ~attrs:[ ("k", Json.Int 7) ] "kept";
  Log.error log "kept too";
  checki "level gating" 2 (List.length !lines);
  (match List.rev !lines with
  | [ w; _ ] ->
      checkb "warn line shape" true
        (Json.member "level" w = Some (Json.String "warn")
        && Json.member "msg" w = Some (Json.String "kept")
        && Json.member "trace" w = Some (Json.String "t9")
        && Json.member "attrs" w = Some (Json.Obj [ ("k", Json.Int 7) ])
        && Json.member "ts" w <> None)
  | _ -> Alcotest.fail "expected two lines");
  Log.set_level log Log.Debug;
  Log.debug log "now kept";
  checki "set_level" 3 (List.length !lines);
  checkb "enabled reflects level" true
    (Log.enabled log Log.Debug && not (Log.enabled Log.ignore_log Log.Error));
  checkb "level names round-trip" true
    (List.for_all
       (fun l -> Log.level_of_name (Log.level_name l) = Some l)
       [ Log.Debug; Log.Info; Log.Warn; Log.Error ]
    && Log.level_of_name "WARNING" = Some Log.Warn
    && Log.level_of_name "bogus" = None)

(* ---- quantiles ---- *)

let test_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~bounds:[| 1.0; 2.0; 4.0 |] m "h" in
  checkf "empty histogram" 0.0 (Metrics.quantile h 0.5);
  (* 100 samples uniform over (0, 4]: quartile boundaries land on the
     bucket bounds, interpolation inside. *)
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i /. 25.0)
  done;
  let q50 = Metrics.quantile h 0.5 and q90 = Metrics.quantile h 0.9 in
  let q99 = Metrics.quantile h 0.99 in
  checkb "p50 in containing bucket" true (q50 >= 1.0 && q50 <= 2.0);
  checkb "p90 in containing bucket" true (q90 >= 2.0 && q90 <= 4.0);
  checkb "monotonic" true (q50 <= q90 && q90 <= q99);
  checkb "p99 clamped by observed max" true (q99 <= 4.0);
  (* Single-sample histogram: every quantile is that sample. *)
  let h1 = Metrics.histogram ~bounds:[| 10.0 |] m "h1" in
  Metrics.observe h1 3.0;
  checkf "p50 of singleton" 3.0 (Metrics.quantile h1 0.5);
  checkf "p99 of singleton" 3.0 (Metrics.quantile h1 0.99);
  (* to_json carries the estimates. *)
  match Json.member "h" (Metrics.to_json m) with
  | Some hj ->
      checkb "json members" true
        (Json.member "p50" hj <> None && Json.member "p90" hj <> None
        && Json.member "p99" hj <> None)
  | None -> Alcotest.fail "histogram missing from to_json"

(* ---- prometheus ---- *)

let test_prometheus_render_valid () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "rounds") 7;
  Metrics.set (Metrics.gauge m "heap_words") 1234.5;
  let h = Metrics.histogram ~bounds:[| 1.0; 2.0 |] m "lat" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 9.0 ];
  let body = Prometheus.render m in
  (match Prometheus.validate body with
  | Ok () -> ()
  | Error e -> Alcotest.failf "render does not validate: %s" e);
  let contains sub =
    let n = String.length body and k = String.length sub in
    let rec go i = i + k <= n && (String.sub body i k = sub || go (i + 1)) in
    go 0
  in
  checkb "namespaced counter" true (contains "bfdn_rounds 7");
  checkb "type lines" true (contains "# TYPE bfdn_lat histogram");
  checkb "inf bucket" true (contains "bfdn_lat_bucket{le=\"+Inf\"} 3");
  checkb "cumulative bucket" true (contains "bfdn_lat_bucket{le=\"2.0\"} 2");
  checkb "count" true (contains "bfdn_lat_count 3");
  checkb "quantile gauges" true (contains "bfdn_lat_p99")

let test_prometheus_validator_rejects () =
  let bad =
    [
      ("bad name", "9bad_name 1\n");
      ("bad type kind", "# TYPE x weird\nx 1\n");
      ("duplicate type", "# TYPE x counter\n# TYPE x counter\nx 1\n");
      ( "interleaved families",
        "# TYPE a counter\na 1\n# TYPE b counter\nb 1\na 2\n" );
      ( "non-cumulative histogram",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
         h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n" );
      ( "missing inf bucket",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n" );
      ( "count disagrees",
        "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n" );
      ("unquoted label", "x{l=v} 1\n");
      ("not a number", "x hello\n");
    ]
  in
  List.iter
    (fun (what, doc) ->
      checkb (what ^ " rejected") true
        (Result.is_error (Prometheus.validate doc)))
    bad;
  (* And a sane hand-written document passes, including escapes. *)
  match
    Prometheus.validate
      "# HELP x a comment\n# TYPE x counter\nx{l=\"a\\\"b\\\\c\\nd\"} 1 \
       1234567\n"
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid document rejected: %s" e

(* ---- tail rendering ---- *)

let test_tail_renders () =
  let span =
    Json.Obj
      [
        ("kind", Json.String "span");
        ("trace", Json.String "t1"); ("span", Json.Int 0); ("parent", Json.Null);
        ("name", Json.String "request"); ("start_ns", Json.Int 0);
        ("dur_ns", Json.Int 1000);
      ]
  in
  let child =
    Json.Obj
      [
        ("kind", Json.String "span");
        ("trace", Json.String "t1"); ("span", Json.Int 1);
        ("parent", Json.Int 0); ("name", Json.String "parse");
        ("start_ns", Json.Int 100); ("dur_ns", Json.Int 200);
      ]
  in
  let log_line =
    Json.Obj
      [
        ("kind", Json.String "log");
        ("ts", Json.Float 1.5); ("level", Json.String "warn");
        ("msg", Json.String "hello"); ("trace", Json.String "t1");
      ]
  in
  let frame =
    Json.Obj
      [
        ("kind", Json.String "frame"); ("round", Json.Int 3);
        ("explored", Json.Int 17);
      ]
  in
  checkb "kinds" true
    (Sink.kind_of span = Some Sink.Span
    && Sink.kind_of log_line = Some Sink.Log
    && Sink.kind_of frame = Some Sink.Frame
    && Sink.kind_of (Json.Int 3) = None);
  let has sub s =
    let n = String.length s and k = String.length sub in
    let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
    go 0
  in
  checkb "span line" true (has "request" (Tail.render_line span));
  checkb "log line" true
    (has "WARN" (Tail.render_line log_line)
    && has "hello" (Tail.render_line log_line));
  checkb "frame line" true (has "round" (Tail.render_line frame));
  let tl = Tail.span_timeline [ span; child ] in
  checkb "timeline has both spans" true (has "request" tl && has "parse" tl);
  checks "empty timeline" "" (Tail.span_timeline [])

(* ---- GC probe alarm lifecycle + exposition ---- *)

let test_gc_probe_alarm_lifecycle () =
  let reg = Metrics.create () in
  let gp = Bfdn_obs.Gc_probe.create reg in
  checkb "alarm active after create" true (Bfdn_obs.Gc_probe.alarm_active gp);
  (* Pause histogram is monotone under forced cycles: counts only grow. *)
  let pauses () =
    match Metrics.find_histogram reg "gc_pause_ns" with
    | Some h -> Metrics.hist_count h
    | None -> 0
  in
  Bfdn_obs.Gc_probe.tick gp;
  Gc.full_major ();
  Bfdn_obs.Gc_probe.tick gp;
  let c1 = pauses () in
  Gc.full_major ();
  Bfdn_obs.Gc_probe.tick gp;
  let c2 = pauses () in
  checkb "histogram monotone" true (c1 >= 1 && c2 >= c1);
  (* The GC registry renders to valid exposition with the gauges. *)
  Bfdn_obs.Gc_probe.snapshot gp;
  let body = Prometheus.render reg in
  (match Prometheus.validate body with
  | Ok () -> ()
  | Error e -> Alcotest.failf "gc registry does not validate: %s" e);
  let has sub =
    let n = String.length body and k = String.length sub in
    let rec go i = i + k <= n && (String.sub body i k = sub || go (i + 1)) in
    go 0
  in
  checkb "pause histogram exposed" true (has "bfdn_gc_pause_ns_bucket");
  checkb "snapshot gauges exposed" true (has "bfdn_gc_heap_words");
  Bfdn_obs.Gc_probe.dispose gp;
  checkb "alarm removed by dispose" false (Bfdn_obs.Gc_probe.alarm_active gp);
  Bfdn_obs.Gc_probe.dispose gp;
  checkb "dispose idempotent" false (Bfdn_obs.Gc_probe.alarm_active gp)

(* ---- one record envelope ---- *)

(* Every record kind, each from its real producer: the span sink and the
   log of a live server, the frames of a [Scenario.run] with the trace
   hook the CLI's [--trace] uses, and a batched job's stream (lane rows,
   then the status line). Each must carry [kind] first, and [Tail] must
   classify it by that member. *)
let test_every_record_kind_enveloped () =
  let module Scenario = Bfdn_scenario.Scenario in
  let module Server = Bfdn_serve.Server in
  let module Client = Bfdn_serve.Client in
  let spec =
    match load_example "cte_hidden_path" with
    | Ok spec -> spec
    | Error e -> Alcotest.fail e
  in
  let records = ref [] and m = Mutex.create () in
  let collect j =
    Mutex.lock m;
    records := j :: !records;
    Mutex.unlock m
  in
  ignore
    (Scenario.run
       ~on_round:(fun x ->
         collect (Bfdn_sim.Trace.json_of_frame (x.Bfdn_sim.Exec_env.frame ())))
       spec);
  let srv =
    Server.create
      {
        Server.default_config with
        Server.port = 0;
        workers = 1;
        log = Log.create ~level:Log.Debug collect;
        span_sink = Some collect;
      }
  in
  let th = Thread.create Server.run srv in
  let stream =
    Fun.protect
      ~finally:(fun () ->
        Server.stop srv;
        Thread.join th)
      (fun () ->
        let port = Server.port srv in
        let call meth path body =
          match Client.request ~port ~body ~meth ~path () with
          | Ok r -> r.Client.body
          | Error e -> Alcotest.fail e
        in
        let batched = { spec with Scenario.batch_seeds = 2 } in
        let ticket = call "POST" "/run?wait=0" (Scenario.to_string batched) in
        let id =
          match Result.map (Json.member "id") (Json.of_string ticket) with
          | Ok (Some (Json.Int id)) -> id
          | _ -> Alcotest.fail ("no job id in " ^ ticket)
        in
        call "GET" (Printf.sprintf "/jobs/%d/stream" id) "")
  in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok j -> collect j
      | Error e -> Alcotest.fail e)
    (String.split_on_char '\n' (String.trim stream));
  let kinds =
    [
      ("span", Sink.Span); ("log", Sink.Log); ("frame", Sink.Frame);
      ("row", Sink.Row); ("status", Sink.Status);
    ]
  in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun j ->
      match j with
      | Json.Obj (("kind", Json.String k) :: _) -> (
          match List.assoc_opt k kinds with
          | Some tk ->
              Hashtbl.replace seen k ();
              checkb (k ^ ": Sink.kind_of agrees") true
                (Sink.kind_of j = Some tk)
          | None -> Alcotest.failf "unknown kind %S" k)
      | _ -> Alcotest.failf "kind is not first in %s" (Json.to_string j))
    !records;
  List.iter
    (fun (k, _) -> checkb (k ^ " produced") true (Hashtbl.mem seen k))
    kinds

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "obs",
    [
      tc "json float round-trip" test_json_float_roundtrip;
      tc "json non-finite null" test_json_nonfinite_null;
      tc "json shapes" test_json_shapes;
      tc "json parse" test_json_parse;
      tc "json parse inverts emit" test_json_parse_inverts_emit;
      tc "ring wraps" test_ring_wraps;
      tc "ring under capacity" test_ring_under_capacity;
      tc "ring cursor" test_ring_cursor;
      tc "ring close wakes a blocked reader" test_ring_close_wakes_reader;
      tc "counter and gauge" test_counter_gauge;
      tc "histogram buckets" test_histogram_buckets;
      tc "merge registries" test_merge;
      tc "merge bounds mismatch" test_merge_bounds_mismatch;
      tc "probe counters match runner" test_probe_counters_match_runner;
      tc "reanchor summary once" test_reanchor_summary_once;
      tc "probe does not perturb" test_probe_does_not_perturb;
      tc "probe observations pinned" test_probe_observations_pinned;
      tc "pool probe aggregate invariant" test_pool_probe_aggregate_invariant;
      tc "dashboard renders" test_dashboard_renders;
      tc "gc probe records pauses" test_gc_probe_records;
      tc "gc probe quiet tick" test_gc_probe_quiet_tick;
      tc "span tree" test_span_tree;
      tc "span finish keeps dur_ns" test_span_finish_dur_ns;
      tc "span disabled no-op" test_span_disabled_noop;
      tc "traced on a disabled recorder is the identity"
        test_traced_disabled_identity;
      tc "span capacity and dropped" test_span_capacity;
      tc "log levels and shape" test_log_levels;
      tc "histogram quantiles" test_quantiles;
      tc "prometheus render validates" test_prometheus_render_valid;
      tc "prometheus validator rejects" test_prometheus_validator_rejects;
      tc "tail renders" test_tail_renders;
      tc "gc probe alarm lifecycle" test_gc_probe_alarm_lifecycle;
      tc "every record kind enveloped" test_every_record_kind_enveloped;
    ] )
