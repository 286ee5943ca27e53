module Json = Bfdn_obs.Json

type json = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let to_string = Json.to_string

(* Written beside its final name and renamed into place: a reader never
   sees a torn report, and a failed write leaves the previous one intact
   and no temporary file behind. *)
let write ~path j =
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out tmp in
    (try
       output_string oc (to_string j ^ "\n");
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

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
    ("schema_version", Int schema_version);
    ("seed", Int seed);
    ("workers", Int workers);
    ( "peak_rss_bytes",
      match peak_rss_bytes () with None -> Null | Some b -> Int b );
  ]

let of_summary (s : Bfdn_util.Stats.summary) =
  Obj
    [
      ("count", Int s.count);
      ("mean", Float s.mean);
      ("stddev", Float s.stddev);
      ("min", Float s.min);
      ("max", Float s.max);
      ("p50", Float s.p50);
      ("p95", Float s.p95);
    ]

let of_sweep ~label ~workers ~seed ~wall ?sequential_wall results =
  let agg = Batch.aggregate results in
  let jobs_per_sec = if wall > 0.0 then float_of_int agg.jobs /. wall else 0.0 in
  let base =
    meta ~seed ~workers
    @ [
        ("label", String label);
        ("cores", Int (Domain.recommended_domain_count ()));
        ("jobs", Int agg.jobs);
        ("errors", Int agg.errors);
        ("explored", Int agg.explored);
        ("total_rounds", Int agg.total_rounds);
        ("wall_seconds", Float wall);
        ("jobs_per_sec", Float jobs_per_sec);
        ( "per_algo_rounds",
          Obj (List.map (fun (a, s) -> (a, of_summary s)) agg.per_algo) );
      ]
  in
  let speedup =
    match sequential_wall with
    | None -> []
    | Some sw ->
        [
          ("sequential_wall_seconds", Float sw);
          ("speedup", Float (if wall > 0.0 then sw /. wall else 0.0));
        ]
  in
  Obj (base @ speedup)
