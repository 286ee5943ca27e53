(* The repository benchmark.

     run.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       one workload in this process, timed for S seconds (BENCHMARK.json's
       run_seconds); the last stdout line is the result
       {"correct", "attempted", "failed", "metrics"}
     run.exe [--workloads a,b] [--repeat N] [--seed N] [--seconds S]
             [--trace 0|1] [--out FILE]
       every workload, each in a fresh process (this executable again),
       N repetitions alternating the workload order, seeds N, N+1, ...;
       prints every metric by name and unit (median and quartiles when
       N > 1) and writes the raw results as JSON
     run.exe --smoke
       tiny sizes, one worker and one client, digests checked: the
       [dune runtest] check that the benchmark still builds and agrees
       with the library

   Every mode needs reference.exe, the host-speed reference, beside this
   executable; run.sh builds both. *)

open Common

let out_dir = ".bench_out"
let names = List.map fst Workloads.all
let nproc = Domain.recommended_domain_count ()
let usage () = prerr_endline "usage: run.exe [--workload NAME | --workloads a,b | --smoke] [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--out FILE]"

type args = {
  mutable workload : string option;
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable smoke : bool;
  mutable repeat : int;
  mutable out : string option;
}

let default_seconds = 20.

let parse argv =
  let a =
    {
      workload = None;
      workloads = names;
      seed = Specs.default_seed;
      seconds = default_seconds;
      trace = false;
      smoke = false;
      repeat = 1;
      out = None;
    }
  in
  let bad fmt = Printf.ksprintf (fun m -> usage (); prerr_endline m; exit 2) fmt in
  let num conv flag v = match conv v with Some x -> x | None -> bad "%s: not a number: %s" flag v in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a.workload <- Some v; go rest
    | "--workloads" :: v :: rest -> a.workloads <- String.split_on_char ',' v; go rest
    | "--seed" :: v :: rest -> a.seed <- num int_of_string_opt "--seed" v; go rest
    | "--seconds" :: v :: rest -> a.seconds <- num float_of_string_opt "--seconds" v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> a.trace <- v = "1"; go rest
    | "--repeat" :: v :: rest -> a.repeat <- num int_of_string_opt "--repeat" v; go rest
    | "--out" :: v :: rest -> a.out <- Some v; go rest
    | "--smoke" :: rest -> a.smoke <- true; go rest
    | flag :: _ -> bad "unknown or incomplete argument %s" flag
  in
  go (List.tl (Array.to_list argv));
  List.iter (fun w -> if not (List.mem w names) then bad "unknown workload %s (one of %s)" w (String.concat ", " names))
    (Option.to_list a.workload @ a.workloads);
  if a.repeat < 1 || a.seconds < 0. then bad "--repeat must be >= 1 and --seconds >= 0";
  (* Smoke measures no window: each workload does its minimum work once. *)
  if a.smoke then a.seconds <- 0.;
  a

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let metrics_json metrics =
  Json.Obj
    (List.map (fun (name, v, unit) -> (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ])) metrics)

(* ---- one workload, in this process ---- *)

let run_workload a name =
  let size = if a.smoke then Specs.Smoke else Specs.Full in
  let workers = if a.smoke then 1 else 2 in
  (* The load comes from this one process: its engine domains stay within
     the machine's cores, and serve's one client holds one connection. *)
  if (not a.smoke) && nproc < 2 then begin
    Printf.eprintf "refusing to run: %d core(s); the benchmark needs 2 (only --smoke runs on fewer)\n" nproc;
    exit 2
  end;
  if workers > nproc then begin
    Printf.eprintf "refusing to run: %d workers exceed %d cores\n" workers nproc;
    exit 2
  end;
  let cfg =
    {
      Workloads.size;
      seed = a.seed;
      seconds = a.seconds;
      workers;
      setups = (if a.smoke then 1 else 5);
      trace = a.trace;
    }
  in
  match (List.assoc name Workloads.all) cfg with
  | exception Check_failed msg ->
      Printf.eprintf "%s: check failed: %s\n%!" name msg;
      exit 1
  | r -> (
      match Outcomes.check_digest ~size ~seed:a.seed ~workload:name r.digest with
      | exception Check_failed msg ->
          Printf.eprintf "%s: check failed: %s\n%!" name msg;
          exit 1
      | () ->
          let correct = r.failed = 0 in
          if not a.smoke then begin
            Printf.eprintf "%s  seed %d  digest %s%s  nproc %d  OCaml %s  %s\n" name a.seed r.digest
              (if a.seed = Specs.default_seed then " (checked)" else " (unchecked seed)")
              nproc Sys.ocaml_version
              (if a.trace then "traced" else "untraced");
            List.iter (fun (m, v, u) -> Printf.eprintf "  %-30s %14.4f %s\n" m v u) r.metrics;
            List.iter (fun (k, v) -> Printf.eprintf "  %-30s %s\n" k (Json.to_string v)) r.info;
            ensure_out_dir ();
            let base = Filename.concat out_dir (name ^ if a.trace then ".trace" else "") in
            if a.trace then begin
              write_spans (base ^ ".spans.jsonl");
              Printf.eprintf "  self time by span (%s.spans.jsonl):\n" base;
              List.iter
                (fun (span, n, self) -> Printf.eprintf "    %-28s %7d spans %12.3f ms\n" span n (ms_of_ns self))
                (self_times ())
            end;
            Out_channel.with_open_text (base ^ ".json") (fun oc ->
                output_string oc
                  (Json.to_string
                     (Json.Obj
                        ([
                           ("workload", Json.String name);
                           ("seed", Json.Int a.seed);
                           ("seconds", Json.Float a.seconds);
                           ("trace", Json.Bool a.trace);
                           ("nproc", Json.Int nproc);
                           ("ocaml", Json.String Sys.ocaml_version);
                           ("digest", Json.String r.digest);
                           ("metrics", metrics_json r.metrics);
                         ]
                        @ r.info)));
                output_char oc '\n')
          end;
          flush stderr;
          print_endline
            (Json.to_string
               (Json.Obj
                  [
                    ("correct", Json.Bool correct);
                    ("attempted", Json.Int r.attempted);
                    ("failed", Json.Int r.failed);
                    ("metrics", metrics_json r.metrics);
                  ]));
          exit (if correct then 0 else 1))

(* ---- every workload, each in a fresh process ---- *)

let spawn_workload a ~seed name =
  let args =
    [ "--workload"; name; "--seed"; string_of_int seed; "--seconds"; Json.float_to_string a.seconds;
      "--trace"; (if a.trace then "1" else "0") ]
    @ if a.smoke then [ "--smoke" ] else []
  in
  Result.map_error (fun msg -> name ^ ": " ^ msg) (run_self args)

let metric_values runs name metric =
  List.filter_map
    (fun (_, w, _, res) ->
      if String.equal w name then
        Option.map (fun m -> to_float (member "value" m)) (Json.member metric (member "metrics" res))
      else None)
    runs

let orchestrate a =
  let failures = ref [] and runs = ref [] in
  for rep = 0 to a.repeat - 1 do
    let order = if rep mod 2 = 0 then a.workloads else List.rev a.workloads in
    let seed = a.seed + rep in
    List.iter
      (fun name ->
        match spawn_workload a ~seed name with
        | Ok res -> runs := (rep, name, seed, res) :: !runs
        | Error msg -> failures := msg :: !failures)
      order
  done;
  let runs = List.rev !runs in
  if a.smoke then
    List.iter (fun (_, name, _, _) -> Printf.printf "benchmark smoke: %s ok\n" name) runs
  else begin
    Printf.printf "nproc %d, OCaml %s, %g s per run, %d repetition(s), %s\n" nproc Sys.ocaml_version a.seconds
      a.repeat (if a.trace then "traced" else "untraced");
    List.iter
      (fun name ->
        match List.find_opt (fun (_, w, _, _) -> String.equal w name) runs with
        | None -> ()
        | Some (_, _, _, res) ->
            Printf.printf "%s\n" name;
            (match member "metrics" res with
            | Json.Obj ms ->
                List.iter
                  (fun (metric, m) ->
                    let unit = match member "unit" m with Json.String u -> u | _ -> "" in
                    match metric_values runs name metric with
                    | [ v ] -> Printf.printf "  %-30s %14.4f %s\n" metric v unit
                    | vs ->
                        let q1, q2, q3 = quartiles vs in
                        Printf.printf "  %-30s %14.4f %s  [q1 %.4f, q3 %.4f, spread %.1f%%, n=%d]\n" metric q2 unit q1
                          q3 (100. *. (q3 -. q1) /. Float.abs q2) (List.length vs))
                  ms
            | _ -> ()))
      a.workloads;
    ensure_out_dir ();
    let path = Option.value a.out ~default:(Filename.concat out_dir "summary.json") in
    Out_channel.with_open_text path (fun oc ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [
                  ("nproc", Json.Int nproc);
                  ("ocaml", Json.String Sys.ocaml_version);
                  ("seconds", Json.Float a.seconds);
                  ("trace", Json.Bool a.trace);
                  ( "runs",
                    Json.List
                      (List.map
                         (fun (rep, name, seed, res) ->
                           Json.Obj
                             [ ("repetition", Json.Int rep); ("workload", Json.String name); ("seed", Json.Int seed);
                               ("result", res) ])
                         runs) );
                ]));
        output_char oc '\n');
    Printf.printf "raw results: %s\n" path
  end;
  List.iter (fun m -> Printf.printf "FAILED: %s\n" m) (List.rev !failures);
  exit (if !failures = [] then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | [ _; "--child-run"; wire ] -> (
      try Workloads.child_run wire
      with Check_failed msg ->
        prerr_endline msg;
        exit 1)
  | [ _; "--child-footprint"; size; seed; workers ] ->
      let size = if String.equal size "smoke" then Specs.Smoke else Specs.Full in
      Workloads.child_footprint ~size ~seed:(int_of_string seed) ~workers:(int_of_string workers)
  | _ -> (
      let a = parse Sys.argv in
      match a.workload with Some name -> run_workload a name | None -> orchestrate a)
