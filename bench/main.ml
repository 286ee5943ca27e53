(* Experiment harness: regenerates every figure and quantitative claim of
   the paper and its extensions (E1–E14), the tracked benchmarks and their
   perf gates (E16–E22) and the design-choice ablations (A1). See
   EXPERIMENTS.md for the index.

   Usage: dune exec bench/main.exe -- [--quick|--full] [--only E1,E3,...]
          [--jobs=N] [--smoke] [--huge-smoke] [--perf-gate] [--det-check] *)

let experiments =
  [
    ("E1", E_regions.run);
    ("E2", E_thm1.run);
    ("E3", E_urn.run);
    ("E4", E_lemma2.run);
    ("E5", E_planner.run);
    ("E6", E_breakdown.run);
    ("E8", E_rec.run);
    ("E9", E_cte.run);
    ("E10", E_alloc.run);
    ("E11", E_adversary.run);
    ("E12", E_overhead.run);
    ("E13+E14", E_extensions.run);
    ("E16", E_hotpath.run);
    ("E17", E_faults.run);
    ("E18", E_serve.run);
    ("E19", E_huge.run);
    ("E21", E_graph.run);
    ("E22", E_batch.run);
    ("A1", E_ablation.run);
  ]

(* Perf gates keyed by the committed report they compare against; a gate
   only runs when its file exists, so a fresh checkout (or a new
   experiment whose baseline has never been committed) still gates
   cleanly on the others. *)
let perf_gates =
  [
    (E_hotpath.report_path, E_hotpath.perf_gate);
    (E_serve.report_path, E_serve.perf_gate);
    (E_huge.report_path, E_huge.perf_gate);
    (E_graph.report_path, E_graph.perf_gate);
    (E_batch.report_path, E_batch.perf_gate);
  ]

(* --perf-gate: after every gate has recorded its rows, one summary is
   written for CI — perf-summary.json (uploaded as an artifact on every
   run, pass or fail) and a markdown table appended to
   $GITHUB_STEP_SUMMARY when Actions provides it. *)
let write_perf_summary () =
  Bfdn_engine.Report.write ~path:"perf-summary.json"
    (Bench_common.gate_summary_json ());
  Printf.printf "perf summary written to perf-summary.json\n";
  match Sys.getenv_opt "GITHUB_STEP_SUMMARY" with
  | Some path when path <> "" ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc (Bench_common.gate_summary_markdown ());
      close_out oc
  | _ -> ()

let () =
  (* Hidden re-exec entry: one E19 measurement in a fresh process so
     VmHWM attributes peak RSS to exactly that configuration. Must be
     dispatched before any other argument handling. *)
  (match
     List.find_opt
       (fun a -> String.length a > 13 && String.sub a 0 13 = "--huge-probe=")
       (List.tl (Array.to_list Sys.argv))
   with
  | Some arg ->
      E_huge.probe_main (String.sub arg 13 (String.length arg - 13));
      exit 0
  | None -> ());
  let only = ref None in
  let smoke = ref false in
  let huge_smoke = ref false in
  let perf_gate = ref false in
  let det_check = ref false in
  let args = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun arg ->
      match arg with
      | "--quick" -> Bench_common.scale := Bench_common.Quick
      | "--full" -> Bench_common.scale := Bench_common.Full
      | "--smoke" -> smoke := true
      | "--huge-smoke" -> huge_smoke := true
      | "--perf-gate" -> perf_gate := true
      | "--det-check" -> det_check := true
      | _ when String.length arg > 7 && String.sub arg 0 7 = "--only=" ->
          only :=
            Some
              (String.split_on_char ','
                 (String.sub arg 7 (String.length arg - 7)))
      | _ when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
          let n =
            match int_of_string_opt (String.sub arg 7 (String.length arg - 7)) with
            | Some n when n >= 1 -> n
            | _ ->
                Printf.eprintf "--jobs expects a positive integer\n";
                exit 2
          in
          Bench_common.workers := n
      | _ ->
          Printf.eprintf
            "unknown argument %s\n\
             usage: main.exe [--quick|--full] [--only=E1,E2,...] [--jobs=N]\n\
            \       [--smoke] [--huge-smoke] [--perf-gate] [--det-check]\n"
            arg;
          exit 2)
    args;
  if !det_check then begin
    (* CI determinism lane: sequential vs N-worker pool vs seed batch,
       outcome-for-outcome over a config matrix. *)
    if not (E_batch.det_check ~jobs:!Bench_common.workers ()) then exit 1
  end
  else if !perf_gate then begin
    (* CI regression tripwire: re-measure a committed-baseline subset,
       skipping gates whose baseline file is not committed yet. Gates
       record rows instead of exiting, so the summary always covers
       every gate; the nonzero exit happens here, after the artifact
       is on disk. *)
    List.iter
      (fun (path, gate) ->
        if Sys.file_exists path then gate ()
        else Printf.printf "perf gate: %s not committed yet, skipped\n" path)
      perf_gates;
    write_perf_summary ();
    let fails = Bench_common.gate_failures () in
    if fails > 0 then begin
      Printf.printf "perf gate: %d row(s) failed\n" fails;
      exit 1
    end
  end
  else if !huge_smoke then begin
    (* CI tripwire for the huge scale tier: the E19 gate row must fully
       explore within its RSS ceiling (see E_huge.smoke). *)
    if not (E_huge.smoke ()) then begin
      Printf.eprintf "huge smoke FAILED\n";
      exit 1
    end;
    print_endline "huge smoke ok"
  end
  else if !smoke then begin
    (* CI tripwire: tiny engine batches over every experiment family. *)
    Bench_common.scale := Bench_common.Quick;
    E_smoke.run ()
  end
  else begin
    let wanted id = match !only with None -> true | Some ids -> List.mem id ids in
    print_endline
      "BFDN reproduction harness — Cosson, Massoulié, Viennot (PODC'23 / full version)";
    List.iter (fun (id, run) -> if wanted id then run ()) experiments
  end
