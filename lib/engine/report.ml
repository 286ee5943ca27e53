module Json = Bfdn_obs.Json

let write ~path j = Bfdn_util.Atomic_file.write ~path (Json.to_string j ^ "\n")

(* Bump when the shape of the BENCH_*.json bodies changes incompatibly,
   so dashboards comparing perf trajectories across PRs can tell which
   fields to expect. v1: pre-obs reports (no meta stamp). v2: meta stamp
   (schema_version, seed, workers). v3: peak_rss_bytes joined the stamp
   (null where the platform cannot report it). *)
let schema_version = 3

(* Peak resident set of this process, best-effort: on Linux the VmHWM
   line of /proc/self/status (the kernel's high-water mark, in kB);
   None elsewhere. Read at stamp time, i.e. when the report is built —
   the process-lifetime peak, which is the honest number for a bench
   run. Sub-run attribution needs subprocess isolation (VmHWM is
   monotone per process); bench/e_huge.ml does exactly that. *)
let peak_rss_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line -> (
                match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
                | kb -> Some (kb * 1024)
                | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
                    scan ())
          in
          scan ())

let meta ~seed ~workers =
  [
    ("schema_version", Json.Int schema_version);
    ("seed", Json.Int seed);
    ("workers", Json.Int workers);
    ( "peak_rss_bytes",
      match peak_rss_bytes () with None -> Json.Null | Some b -> Json.Int b );
  ]

let of_summary (s : Bfdn_util.Stats.summary) =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("mean", Json.Float s.mean);
      ("stddev", Json.Float s.stddev);
      ("min", Json.Float s.min);
      ("max", Json.Float s.max);
      ("p50", Json.Float s.p50);
      ("p95", Json.Float s.p95);
    ]

let of_sweep ~label ~workers ~seed ~wall results =
  let agg = Batch.aggregate results in
  let jobs_per_sec = if wall > 0.0 then float_of_int agg.jobs /. wall else 0.0 in
  Json.Obj
    (meta ~seed ~workers
    @ [
        ("label", Json.String label);
        ("cores", Json.Int (Domain.recommended_domain_count ()));
        ("jobs", Json.Int agg.jobs);
        ("errors", Json.Int agg.errors);
        ("explored", Json.Int agg.explored);
        ("total_rounds", Json.Int agg.total_rounds);
        ("wall_seconds", Json.Float wall);
        ("jobs_per_sec", Json.Float jobs_per_sec);
        ( "per_algo_rounds",
          Json.Obj (List.map (fun (a, s) -> (a, of_summary s)) agg.per_algo) );
      ])
