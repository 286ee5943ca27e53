(* Tests for Bfdn_engine: the pool drains under any worker count, batches
   are deterministic across worker counts (the sharded-replay contract),
   and failures are contained per job. *)

module Pool = Bfdn_engine.Pool
module Batch = Bfdn_engine.Batch
module Report = Bfdn_engine.Report
module Json = Bfdn_obs.Json
module Scenario = Bfdn_scenario.Scenario

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---- Pool ---- *)

let test_pool_drains () =
  List.iter
    (fun workers ->
      let pool = Pool.create ~workers () in
      checki "worker count" (max 1 workers) (Pool.workers pool);
      let hits = Atomic.make 0 in
      for _ = 1 to 50 do
        Pool.submit pool (fun () -> Atomic.incr hits)
      done;
      Pool.shutdown pool;
      checki
        (Printf.sprintf "all tasks ran (workers=%d)" workers)
        50 (Atomic.get hits))
    [ 1; 2; Domain.recommended_domain_count () ]

(* Every third task raises; the workers survive them, so the tasks
   queued behind them (the last one included) still run. *)
let test_pool_survives_raising_task () =
  let pool = Pool.create ~workers:2 () in
  let hits = Atomic.make 0 in
  for i = 1 to 30 do
    Pool.submit pool (fun () ->
        if i mod 3 = 0 then failwith "boom";
        Atomic.incr hits)
  done;
  Pool.submit pool (fun () -> Atomic.incr hits);
  Pool.shutdown pool;
  checki "non-raising tasks all ran" 21 (Atomic.get hits)

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~workers:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  checkb "submit after shutdown rejected" true
    (try
       Pool.submit pool (fun () -> ());
       false
     with Invalid_argument _ -> true)

(* ---- Batch determinism (the sequential-vs-parallel oracle) ---- *)

(* >= 200 jobs across every algorithm and instance family the registry
   knows, tiny instances so the whole oracle runs in well under a second
   of simulated work per worker count. *)
let oracle_jobs () =
  let jobs = ref [] in
  let add j = jobs := j :: !jobs in
  let seed = ref 1000 in
  let next_seed () =
    incr seed;
    !seed
  in
  List.iter
    (fun family ->
      List.iter
        (fun algo ->
          List.iter
            (fun k ->
              for _ = 1 to 2 do
                add
                  (Scenario.make ~algo ~k ~seed:(next_seed ())
                     (Scenario.generated ~family ~n:60 ~depth_hint:8))
              done)
            [ 1; 3; 8 ])
        [ "bfdn"; "cte"; "dfs"; "offline"; "random-walk"; "bfdn-wr"; "bfdn-rec" ])
    [ "random"; "comb"; "star"; "spider"; "hidden-path" ];
  List.iter
    (fun policy ->
      List.iter
        (fun algo ->
          List.iter
            (fun k ->
              add
                (Scenario.make ~algo ~k ~seed:(next_seed ())
                   (Scenario.adversarial ~policy ~capacity:80 ~depth_budget:12)))
            [ 2; 6 ])
        [ "bfdn"; "cte" ])
    Bfdn_scenario.World_registry.policy_names;
  List.rev !jobs

let result_testable =
  Alcotest.testable
    (fun ppf -> function
      | Ok (o : Scenario.outcome) ->
          Format.fprintf ppf "Ok(rounds=%d n=%d)" o.result.rounds o.n
      | Error e -> Format.fprintf ppf "Error(%s)" e)
    (fun a b ->
      match (a, b) with
      | Ok x, Ok y -> Scenario.equal_outcome x y
      | Error x, Error y -> x = y
      | _ -> false)

let test_batch_parallel_equals_sequential () =
  let jobs = oracle_jobs () in
  checkb "oracle batch is >= 200 jobs" true (List.length jobs >= 200);
  let sequential = Batch.run ~workers:1 jobs in
  List.iter
    (fun workers ->
      let parallel = Batch.run ~workers jobs in
      List.iter2
        (fun (job, expect) (_, got) ->
          check result_testable
            (Printf.sprintf "workers=%d %s" workers (Scenario.describe job))
            expect got)
        sequential parallel)
    [ 2; max 2 (Domain.recommended_domain_count ()) ]

let test_batch_progress_and_order () =
  let jobs =
    List.init 40 (fun i ->
        Scenario.make ~algo:"bfdn" ~k:3 ~seed:i
          (Scenario.generated ~family:"random" ~n:30 ~depth_hint:5))
  in
  let last = ref 0 in
  let monotone = ref true in
  let results =
    Batch.run ~workers:3
      ~progress:(fun ~completed ~total ->
        if completed <= !last || total <> 40 then monotone := false;
        last := completed)
      jobs
  in
  checkb "progress is monotone" true !monotone;
  checki "progress reached the total" 40 !last;
  (* Ordered collection: result i corresponds to job i. *)
  List.iteri
    (fun i (job, _) ->
      checki (Printf.sprintf "slot %d holds job %d" i i) i job.Scenario.seed)
    results

let test_batch_error_isolated () =
  let good i =
    Scenario.make ~algo:"bfdn" ~k:2 ~seed:i
      (Scenario.generated ~family:"star" ~n:20 ~depth_hint:2)
  in
  let bad =
    Scenario.make ~algo:"no-such-algo" ~k:2 ~seed:99
      (Scenario.generated ~family:"star" ~n:20 ~depth_hint:2)
  in
  let jobs = [ good 0; bad; good 1; bad; good 2 ] in
  let results = Batch.run ~workers:2 jobs in
  let oks, errs =
    List.partition (fun (_, r) -> Result.is_ok r) results
  in
  checki "good jobs all completed" 3 (List.length oks);
  checki "bad jobs reported per job" 2 (List.length errs);
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (_, r) ->
      match r with
      | Error msg ->
          checkb "error names the unknown algorithm" true
            (contains msg "no-such-algo")
      | Ok _ -> ())
    errs

(* The probe's records, one per element: (worker, wait_ns). Each domain
   appends under a lock, so the hook is domain-safe. *)
let recording_probe () =
  let lock = Mutex.create () and jobs = ref [] in
  let probe =
    Bfdn_obs.Probe.make
      ~on_job:(fun ~worker ~wait_ns ~run_ns:_ ->
        Mutex.protect lock (fun () -> jobs := (worker, wait_ns) :: !jobs))
      ()
  in
  (probe, jobs)

(* Every third element raises, and element costs vary, so workers
   finish out of order; the slots still come back in input order. *)
let test_batch_map_generic () =
  let xs = Array.init 60 (fun i -> i) in
  let f x =
    if x mod 3 = 2 then failwith (string_of_int x);
    let acc = ref 0 in
    for j = 1 to (x * 7919 mod 13) * 2000 do
      acc := !acc + j
    done;
    ignore (Sys.opaque_identity !acc);
    x * x
  in
  let expect =
    Array.map
      (fun x ->
        if x mod 3 = 2 then
          Error (Printexc.to_string (Failure (string_of_int x)))
        else Ok (x * x))
      xs
  in
  List.iter
    (fun workers ->
      List.iter
        (fun probed ->
          let probe, jobs = recording_probe () in
          let probe = if probed then probe else Bfdn_obs.Probe.noop in
          let got = Batch.map ~probe ~workers f xs in
          checkb
            (Printf.sprintf "input order (workers=%d, probe=%b)" workers probed)
            true (got = expect);
          checki "probe records" (if probed then 60 else 0)
            (List.length !jobs))
        [ false; true ])
    [ 1; 2; 3; 8 ]

(* on_job fires once per element, from workers 0 .. min(w, n) - 1, with
   a wait measured from the start of the batch. *)
let test_batch_map_probe () =
  List.iter
    (fun (workers, n) ->
      let probe, jobs = recording_probe () in
      ignore (Batch.map ~probe ~workers (fun x -> x) (Array.make n 0));
      let what = Printf.sprintf "workers=%d n=%d" workers n in
      checki (what ^ ": one record per element") n (List.length !jobs);
      List.iter
        (fun (worker, wait_ns) ->
          checkb (what ^ ": worker id in range") true
            (worker >= 0 && worker < min workers n);
          checkb (what ^ ": wait >= 0") true (wait_ns >= 0))
        !jobs)
    [ (1, 10); (2, 10); (3, 40); (8, 5); (8, 1); (3, 0) ]

(* A raising [progress], on the caller or on a helper, reaches the
   caller only after every helper has joined: by then no element is
   running, and none starts afterwards. *)
let test_batch_map_progress_raises () =
  let caller = Domain.self () in
  List.iter
    (fun (where, raise_here) ->
      let started = Atomic.make 0 and finished = Atomic.make 0 in
      let f x =
        Atomic.incr started;
        Unix.sleepf 0.001;
        Atomic.incr finished;
        x
      in
      let progress ~completed:_ ~total:_ =
        if raise_here (Domain.self () = caller) then failwith where
      in
      (match Batch.map ~workers:3 ~progress f (Array.make 200 0) with
      | _ -> Alcotest.failf "%s: the progress exception was lost" where
      | exception Failure msg ->
          Alcotest.(check string) "the raised one" where msg);
      let s = Atomic.get started in
      checki (where ^ ": no element running") s (Atomic.get finished);
      Unix.sleepf 0.02;
      checki (where ^ ": no element started afterwards") s (Atomic.get started))
    [ ("on the caller", Fun.id); ("on a helper", not) ]

(* Domain ids are handed out in spawn order, so a probe domain spawned
   after [map] has the id after the one spawned before it exactly when
   [map] spawned none. *)
let test_batch_map_small_spawns_nothing () =
  let probe_id () = (Domain.join (Domain.spawn Domain.self) :> int) in
  List.iter
    (fun n ->
      let before = probe_id () in
      let res = Batch.map ~workers:8 (fun x -> x + 1) (Array.make n 1) in
      checki (Printf.sprintf "n=%d: no helper spawned" n) (before + 1)
        (probe_id ());
      checkb "result" true (Array.for_all (( = ) (Ok 2)) res))
    [ 0; 1 ];
  let before = probe_id () in
  ignore (Batch.map ~workers:3 Fun.id (Array.make 10 0));
  checki "n=10, workers=3: two helpers" (before + 3) (probe_id ())

let test_aggregate () =
  let jobs =
    List.concat_map
      (fun algo ->
        List.init 3 (fun i ->
            Scenario.make ~algo ~k:2 ~seed:(i + 7)
              (Scenario.generated ~family:"comb" ~n:40 ~depth_hint:6)))
      [ "bfdn"; "cte" ]
  in
  let results = Batch.run ~workers:1 jobs in
  let agg = Batch.aggregate results in
  checki "job count" 6 agg.jobs;
  checki "no errors" 0 agg.errors;
  checki "two algos" 2 (List.length agg.per_algo);
  checkb "per-algo counts" true
    (List.for_all (fun (_, (s : Bfdn_util.Stats.summary)) -> s.count = 3)
       agg.per_algo)

(* ---- Report ---- *)

let test_report_json () =
  let j =
    Json.Obj
      [
        ("s", Json.String "a\"b\n");
        ("i", Json.Int 3);
        ("f", Json.Float 1.5);
        ("nan", Json.Float Float.nan);
        ("l", Json.List [ Json.Bool true; Json.Null ]);
      ]
  in
  check Alcotest.string "rendering"
    "{\"s\":\"a\\\"b\\n\",\"i\":3,\"f\":1.5,\"nan\":null,\"l\":[true,null]}"
    (Json.to_string j)

(* The stamp names the host's core count, the compiler and the dune
   profile the code was built under. *)
let test_report_meta () =
  let meta = Report.meta ~seed:7 ~workers:2 in
  let member name =
    match List.assoc_opt name meta with
    | Some v -> v
    | None -> Alcotest.failf "meta lacks %s" name
  in
  checkb "nproc" true
    (member "nproc" = Json.Int (Domain.recommended_domain_count ()));
  checkb "ocaml_version" true
    (member "ocaml_version" = Json.String Sys.ocaml_version);
  match member "build_profile" with
  | Json.String p ->
      check Alcotest.string "build_profile" Bfdn_engine.Build_info.profile p;
      checkb "a profile name" true
        (p <> "" && String.for_all (fun c -> c <> '"' && c <> '\n') p)
  | _ -> Alcotest.fail "build_profile is not a string"

(* A failed write leaves the previous file byte-identical and no
   temporary file, for each writer of an output file: a report and a
   dumped spec. Two ways to fail: a read-only directory (skipped when
   the process may write there anyway, as root may), and a file name one
   byte short of the limit, whose temporary name is then too long. *)
let test_report_write_atomic () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let v i = Json.Obj [ ("v", Json.Int i) ] in
  let spec i =
    Scenario.make ~algo:"bfdn" ~k:2 ~seed:i
      (Scenario.generated ~family:"star" ~n:15 ~depth_hint:2)
  in
  let writers =
    [
      ("report", (fun path i -> Report.write ~path (v i)), "{\"v\":1}\n");
      ( "spec",
        (fun path i -> Scenario.save ~path (spec i)),
        Scenario.to_string (spec 1) ^ "\n" );
    ]
  in
  List.iter
    (fun (name, write, written_1) ->
      let dir = Filename.temp_dir "bfdn-report" "" in
      let failed_write_keeps path =
        let before = read path in
        (match write path 2 with
        | () -> Alcotest.fail (name ^ ": the write was expected to fail")
        | exception Sys_error _ -> ());
        check Alcotest.string (name ^ ": previous file byte-identical") before
          (read path);
        checkb (name ^ ": no temporary file") false
          (Sys.file_exists (path ^ ".tmp"))
      in
      let path = Filename.concat dir "BENCH_x.json" in
      write path 0;
      write path 1;
      check Alcotest.string (name ^ ": rewrite replaces") written_1 (read path);
      checkb (name ^ ": no temporary file after success") false
        (Sys.file_exists (path ^ ".tmp"));
      Unix.chmod dir 0o555;
      let writable =
        match open_out (Filename.concat dir "probe") with
        | oc ->
            close_out oc;
            Sys.remove (Filename.concat dir "probe");
            true
        | exception Sys_error _ -> false
      in
      if not writable then failed_write_keeps path;
      Unix.chmod dir 0o755;
      let long = Filename.concat dir (String.make 250 'r' ^ ".json") in
      Out_channel.with_open_bin long (fun oc -> output_string oc "{\"v\":1}\n");
      failed_write_keeps long;
      List.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Array.to_list (Sys.readdir dir));
      Sys.rmdir dir)
    writers

let test_report_of_sweep () =
  let jobs =
    List.init 4 (fun i ->
        Scenario.make ~algo:"bfdn" ~k:2 ~seed:i
          (Scenario.generated ~family:"star" ~n:15 ~depth_hint:2))
  in
  let results = Batch.run ~workers:1 jobs in
  let j =
    Report.of_sweep ~label:"test" ~workers:2 ~seed:0 ~wall:0.5 results
  in
  let s = Json.to_string j in
  let contains needle =
    let nl = String.length needle and hl = String.length s in
    let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "has jobs_per_sec" true (contains "\"jobs_per_sec\":8");
  checkb "has per-algo block" true (contains "\"bfdn\"")

(* ---- adversarial replay invariant through the engine ---- *)

let test_adversarial_replay_matches () =
  List.iter
    (fun policy ->
      let job =
        Scenario.make ~algo:"bfdn" ~k:4 ~seed:5
          (Scenario.adversarial ~policy ~capacity:120 ~depth_budget:15)
      in
      let o = Scenario.run job in
      match o.replay_rounds with
      | None -> Alcotest.fail "adversarial job must report replay rounds"
      | Some r ->
          checki
            (Printf.sprintf "frozen replay reproduces the run (%s)" policy)
            o.result.rounds r)
    [ "thick-comb"; "corridor"; "miser" ]

(* Eight jobs on one comb instance share one cached tree (built by
   whichever worker misses first); the pool's outcomes equal the
   sequential runs. *)
let test_batch_shares_cached_tree () =
  let specs =
    Array.of_list
      (List.concat_map
         (fun (algo, k) ->
           List.map
             (fun seed ->
               Scenario.make ~algo ~k ~seed
                 (Scenario.generated ~family:"comb" ~n:1231 ~depth_hint:17))
             [ 1; 2 ])
         [ ("bfdn", 1); ("bfdn", 8); ("cte", 1); ("cte", 8) ])
  in
  let par = Batch.map ~workers:2 (fun spec -> Scenario.run spec) specs in
  Array.iteri
    (fun i spec ->
      match par.(i) with
      | Ok o ->
          checkb
            (Scenario.describe spec ^ ": 2 workers equal sequential")
            true
            (Scenario.equal_outcome o (Scenario.run spec))
      | Error e -> Alcotest.fail (Scenario.describe spec ^ ": " ^ e))
    specs;
  checkb "one tree for every job" true
    (Array.for_all
       (fun spec -> Scenario.materialize spec == Scenario.materialize specs.(0))
       specs)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "engine",
    [
      tc "pool drains under 1/2/N workers" test_pool_drains;
      tc "pool survives raising tasks" test_pool_survives_raising_task;
      tc "pool shutdown is idempotent" test_pool_shutdown_idempotent;
      tc "batch: parallel equals sequential" test_batch_parallel_equals_sequential;
      tc "batch: progress monotone, collection ordered" test_batch_progress_and_order;
      tc "batch: per-job errors are isolated" test_batch_error_isolated;
      tc "batch: generic map" test_batch_map_generic;
      tc "batch: on_job once per element" test_batch_map_probe;
      tc "batch: raising progress joins helpers first"
        test_batch_map_progress_raises;
      tc "batch: 0 or 1 elements spawn no helper"
        test_batch_map_small_spawns_nothing;
      tc "batch: aggregate summaries" test_aggregate;
      tc "report: json rendering" test_report_json;
      tc "report: sweep body" test_report_of_sweep;
      tc "report: meta stamp" test_report_meta;
      tc "adversarial replay matches adaptive run" test_adversarial_replay_matches;
      tc "report: failed write keeps the previous file" test_report_write_atomic;
      tc "batch: jobs share one cached tree" test_batch_shares_cached_tree;
    ] )
