(* The four workloads. Each sets up (several times; set-up time is the
   median), runs a timed window of fixed duration, checks every outcome,
   and reports either the end-to-end metrics or, in a traced run, the
   per-layer ledger.

   A window is a sequence of slices, each the same work: a pass over the
   workload's specs, one replay of serve's request trace, one big-run
   child. Slices differ only in how fast the host ran them, and each is
   bracketed by reference samples (Common, "host-speed reference"); every
   time is rescaled by the samples around its slice. Throughput is the
   median over slices. A latency is taken per operation first (a spec, a
   cell, a position in the trace): its median over the slices, which
   averages the host's noise out of each operation before operations of
   different sizes are compared. *)

open Common
module Scenario = Bfdn_scenario.Scenario
module Batch = Bfdn_engine.Batch
module Seed_batch = Bfdn_engine.Seed_batch
module Server = Bfdn_serve.Server
module Client = Bfdn_serve.Client

type config = {
  size : Specs.size;
  seed : int;
  seconds : float;
  workers : int; (* engine domains in sweep *)
  setups : int; (* set-up repetitions *)
  trace : bool;
}

(* One slice. [common] and [expensive] time the operations of the
   workload's common and expensive path, each as (operation, ns), where
   the operation names the same work in every slice; [setup_ns] is the
   set-up inside the slice (big-run's child start to its Scenario.run
   call; nan elsewhere). *)
type slice = {
  wall_ns : int;
  ops : int; (* outcomes, lanes or 200 responses *)
  attempted : int;
  failed : int;
  common : (int * int) list;
  expensive : (int * int) list;
  setup_ns : float;
  busy_ns : int; (* time inside the measured operations *)
  hits : int;
  ref_ns : float; (* the reference around the slice *)
}

let slice ~wall_ns ~ops ~attempted ?(common = []) ?(expensive = []) ?(setup_ns = nan) ?(busy_ns = 0) ?(hits = 0) () =
  { wall_ns; ops; attempted; failed = attempted - ops; common; expensive; setup_ns; busy_ns; hits; ref_ns = nan }

(* Run [step] until [seconds] are up and at least [min] slices ran,
   sampling the reference before the first slice and after each. *)
let slices ?(min = 1) ~seconds step =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go before acc n =
    if n >= min && now_ns () >= deadline then List.rev acc
    else
      let s = step () in
      let after = sample_reference () in
      go after ({ s with ref_ns = float_of_int (before + after) /. 2. } :: acc) (n + 1)
  in
  go (sample_reference ()) [] 0

(* The plain window and, in a traced run, a traced one: each half the
   duration, so a traced run costs about as much as a plain one. *)
let windows cfg window =
  if cfg.trace then
    let plain = window ~seconds:(cfg.seconds /. 2.) ~span:None in
    let traced = with_span "window" (fun id -> window ~seconds:(cfg.seconds /. 2.) ~span:(Some id)) in
    (plain, Some traced)
  else (window ~seconds:cfg.seconds ~span:None, None)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* [scale s t] rescales a time of slice [s] to the reference host speed
   (or, with [~raw], leaves it as measured). *)
let scale ~raw s t = if raw then t else normalize ~ref_ns:s.ref_ns t

(* The median over slices of [f slice ~scale]; slices without the
   statistic are skipped. *)
let over ?(raw = false) f ss =
  median (List.filter (fun v -> not (Float.is_nan v)) (List.map (fun s -> f s ~scale:(scale ~raw s)) ss))

let throughput ?raw ss = over ?raw (fun s ~scale -> float_of_int s.ops /. (scale (float_of_int s.wall_ns) /. 1e9)) ss

(* Each operation's median over the slices, then the [p] percentile of
   those medians, in ms. *)
let latency ?(raw = false) ~p path ss =
  let by_op = Hashtbl.create 64 in
  List.iter
    (fun s ->
      List.iter
        (fun (op, ns) ->
          let t = scale ~raw s (float_of_int ns) in
          Hashtbl.replace by_op op (t :: Option.value (Hashtbl.find_opt by_op op) ~default:[]))
        (path s))
    ss;
  percentile p (Hashtbl.fold (fun _ ts acc -> median ts :: acc) by_op []) /. 1e6

(* [expensive_p] is the percentile over the expensive path's operations:
   the median, or sweep's p90 over all its jobs. *)
let time_metrics ?raw ~expensive_p ss =
  [
    ("throughput_per_s", throughput ?raw ss, "1/s");
    ("latency_ms", latency ?raw ~p:0.5 (fun s -> s.common) ss, "ms");
    ("slow_latency_ms", latency ?raw ~p:expensive_p (fun s -> s.expensive) ss, "ms");
  ]

type setup = { normalized_s : float; raw_s : float }

type report = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  digest : string;
  info : (string * Json.t) list;
}

(* [concurrency] is how many operations a slice runs at once (sweep's
   workers), for the traced run's busy share. *)
let report ?(concurrency = 1) ?(expensive_p = 0.5) cfg ~wires ~setup ~rss ~digest ~info (plain, traced) =
  let all = plain @ Option.value traced ~default:[] in
  let time_metrics ?raw = time_metrics ?raw ~expensive_p in
  if List.exists (fun (_, v, _) -> Float.is_nan v) (time_metrics plain) then
    check_failed "a time metric has no operations to measure";
  let metrics =
    match traced with
    | None -> (("setup_s", setup.normalized_s, "s") :: time_metrics plain) @ [ ("peak_rss_mb", rss, "MB") ]
    | Some t ->
        let wall = sum (fun s -> s.wall_ns) t in
        Ledger.measure ~workers:cfg.workers wires
        @ [
            ("engine.busy_share", float_of_int (sum (fun s -> s.busy_ns) t) /. float_of_int (concurrency * wall), "ratio");
            ("serve.hit_share", float_of_int (sum (fun s -> s.hits) all) /. float_of_int (max 1 (sum (fun s -> s.ops) all)), "ratio");
            ("trace.overhead_share", (throughput plain /. throughput t) -. 1., "ratio");
          ]
  in
  (* What the host did meanwhile: the raw (unnormalized) values and the
     reference's own median duration. *)
  let raw =
    Json.Obj
      (("setup_s", Json.Float setup.raw_s)
      :: List.map (fun (name, v, _) -> (name, Json.Float v)) (time_metrics ~raw:true plain))
  in
  let info =
    info
    @ [
        ("raw", raw);
        ("reference_ms", Json.Float (median (List.map (fun s -> s.ref_ns /. 1e6) all)));
        ("slices", Json.Int (List.length plain));
      ]
  in
  {
    attempted = sum (fun (s : slice) -> s.attempted) all;
    failed = sum (fun (s : slice) -> s.failed) all;
    metrics;
    digest;
    info;
  }

let decode = Ledger.spec_of_wire

(* Set up [cfg.setups] times, keeping the last state; [teardown]
   releases the earlier ones. Each set-up is bracketed by reference
   samples like a slice. Returns the state, the median set-up time, and
   this process's peak RSS after the first set-up: what one invocation
   that decodes its specs and runs one pass holds. (The peak after the
   window would instead measure how the heap creeps over many passes,
   which grows with the window and varies from run to run.) *)
let repeated_setup ?(teardown = ignore) cfg f =
  let rec go i before times rss =
    let t0 = now_ns () in
    let st = f () in
    let t = float_of_int (now_ns () - t0) /. 1e9 in
    let after = sample_reference () in
    let times = (t, normalize ~ref_ns:(float_of_int (before + after) /. 2.) t) :: times in
    let rss = if i = 1 then peak_rss_mb () else rss in
    if i < cfg.setups then begin
      teardown st;
      go (i + 1) after times rss
    end
    else (st, { normalized_s = median (List.map snd times); raw_s = median (List.map fst times) }, rss)
  in
  go 1 (sample_reference ()) [] nan

(* Every pass over the same specs must digest the same. *)
let same_digest ~workload digests =
  match List.sort_uniq String.compare digests with
  | [ d ] -> d
  | [] -> check_failed "%s: no complete pass to digest" workload
  | _ -> check_failed "%s: passes over the same specs gave different outcomes" workload

(* ---- sweep ---- *)

let sweep_pass ~workers specs =
  Batch.map ~workers
    (fun spec ->
      let t0 = now_ns () in
      let o = Scenario.run spec in
      (o, t0, now_ns ()))
    specs

(* The child side of sweep's peak RSS: what one invocation holds once it
   has decoded its specs and run one pass. *)
let child_footprint ~size ~seed ~workers =
  ignore (sweep_pass ~workers (Array.of_list (List.map decode (Specs.sweep size seed))));
  print_endline (Json.to_string (Json.Obj [ ("peak_rss_mb", Json.Float (peak_rss_mb ())) ]))

let size_name = function Specs.Full -> "full" | Specs.Smoke -> "smoke"

let sweep cfg =
  let wires = Specs.sweep cfg.size cfg.seed in
  let pass = sweep_pass ~workers:cfg.workers in
  (* Sweep's peak RSS is the median over fresh processes: in one process
     with two engine domains, VmHWM moves with how their allocations
     interleave (19.7 to 22.0 MB over ten runs). *)
  let rss =
    median
      (List.init cfg.setups (fun _ ->
           match
             run_self
               [ "--child-footprint"; size_name cfg.size; string_of_int cfg.seed; string_of_int cfg.workers ]
           with
           | Ok j -> to_float (member "peak_rss_mb" j)
           | Error msg -> check_failed "sweep: footprint child %s" msg))
  in
  let specs, setup, _ =
    repeated_setup cfg (fun () ->
        let specs = Array.of_list (List.map decode wires) in
        ignore (pass specs);
        specs)
  in
  let expects = Array.map Outcomes.expect specs in
  let digests = ref [] in
  let window ~seconds ~span =
    slices ~seconds (fun () ->
        let t0 = now_ns () in
        let res = pass specs in
        let t1 = now_ns () in
        let parent = Option.map (fun parent -> add_span ~parent "sweep.pass" t0 t1) span in
        let ok = ref 0 and jobs = ref [] and busy = ref 0 and fields = ref [] in
        Array.iteri
          (fun i -> function
            | Ok (o, a, b) ->
                Option.iter (fun parent -> ignore (add_span ~parent "sweep.job" a b)) parent;
                let f = Outcomes.of_outcome o in
                Outcomes.check ~what:(Scenario.describe specs.(i)) expects.(i) f;
                fields := f :: !fields;
                incr ok;
                jobs := (i, b - a) :: !jobs;
                busy := !busy + (b - a)
            | Error msg -> Printf.eprintf "sweep: %s: %s\n%!" (Scenario.describe specs.(i)) msg)
          res;
        let n = Array.length specs in
        if !ok = n then digests := Outcomes.digest (List.rev !fields) :: !digests;
        slice ~wall_ns:(t1 - t0) ~ops:!ok ~attempted:n ~common:!jobs ~expensive:!jobs ~busy_ns:!busy ())
  in
  let ws = windows cfg window in
  (* The engine's answers against plain sequential runs, on a sample. *)
  let first = pass specs in
  Array.iteri
    (fun i spec ->
      if i mod 11 = 0 then
        match first.(i) with
        | Ok (o, _, _) when Outcomes.of_outcome o = Outcomes.of_outcome (Scenario.run spec) -> ()
        | _ -> check_failed "sweep: engine outcome differs from a plain run: %s" (Scenario.describe spec))
    specs;
  let digest = same_digest ~workload:"sweep" !digests in
  report ~concurrency:cfg.workers ~expensive_p:0.9 cfg ~wires ~setup ~rss ~digest ~info:[] ws

(* ---- seed-batch ---- *)

let seed_batch cfg =
  let wires = Specs.seed_batch cfg.size cfg.seed in
  let pass specs =
    Array.map
      (fun spec ->
        let t0 = now_ns () in
        let r = try Ok (Seed_batch.run spec) with e -> Error (Printexc.to_string e) in
        (r, t0, now_ns ()))
      specs
  in
  (* Its set-up is the shortest (a quarter second), and the median of five
     moved 20% from run to run; fifteen halve that. *)
  let specs, setup, rss =
    repeated_setup { cfg with setups = 3 * cfg.setups } (fun () ->
        let specs = Array.of_list (List.map decode wires) in
        ignore (pass specs);
        specs)
  in
  let expects = Array.map Outcomes.expect specs in
  (* The expensive path, fixed by the input: random is the one family
     whose tree differs between seeds, so its lanes run in lockstep;
     comb and trap lanes share one tree and may collapse. *)
  let lockstep =
    Array.map
      (fun (spec : Scenario.t) ->
        match spec.instance with Scenario.World { world = "random"; _ } -> true | _ -> false)
      specs
  in
  let digests = ref [] and collapsed = ref 0 and lanes_seen = ref 0 in
  let window ~seconds ~span =
    slices ~seconds (fun () ->
        let t0 = now_ns () in
        let res = pass specs in
        let t1 = now_ns () in
        let parent = Option.map (fun parent -> add_span ~parent "seed-batch.pass" t0 t1) span in
        let ok = ref 0 and attempted = ref 0 and collapsing = ref [] and stepped = ref [] and fields = ref [] in
        Array.iteri
          (fun i (r, a, b) ->
            let lanes = specs.(i).Scenario.batch_seeds in
            attempted := !attempted + lanes;
            Option.iter (fun parent -> ignore (add_span ~parent "seed-batch.call" a b)) parent;
            match r with
            | Ok r ->
                Array.iter
                  (fun o ->
                    let f = Outcomes.of_outcome o in
                    Outcomes.check ~what:(Scenario.describe specs.(i)) expects.(i) f;
                    fields := f :: !fields)
                  r.Seed_batch.outcomes;
                ok := !ok + lanes;
                lanes_seen := !lanes_seen + lanes;
                if r.Seed_batch.collapsed then collapsed := !collapsed + lanes;
                if lockstep.(i) then stepped := (i, b - a) :: !stepped else collapsing := (i, b - a) :: !collapsing
            | Error msg -> Printf.eprintf "seed-batch: %s: %s\n%!" (Scenario.describe specs.(i)) msg)
          res;
        if !ok = !attempted then digests := Outcomes.digest (List.rev !fields) :: !digests;
        slice ~wall_ns:(t1 - t0) ~ops:!ok ~attempted:!attempted ~common:!collapsing ~expensive:!stepped
          ~busy_ns:(t1 - t0) ())
  in
  let ws = windows cfg window in
  (* Batched lanes against their plain runs, on a sample of cells. *)
  let first = pass specs in
  Array.iteri
    (fun i spec ->
      if i mod 3 = 0 then
        let last = spec.Scenario.batch_seeds - 1 in
        match first.(i) with
        | Ok r, _, _
          when Outcomes.of_outcome r.Seed_batch.outcomes.(last)
               = Outcomes.of_outcome (Scenario.run (Scenario.unbatch spec last)) ->
            ()
        | _ -> check_failed "seed-batch: lane %d differs from its plain run: %s" last (Scenario.describe spec))
    specs;
  let digest = same_digest ~workload:"seed-batch" !digests in
  let info = [ ("collapsed_lane_share", Json.Float (float_of_int !collapsed /. float_of_int (max 1 !lanes_seen))) ] in
  report cfg ~wires ~setup ~rss ~digest ~info ws

(* ---- serve ---- *)

type server = { pid : int; port : int; ctl : Unix.file_descr }

(* The server runs in a forked child (forked before this process starts
   any domain); it stops when the control pipe closes, so it cannot
   outlive this process. *)
let start_server ~cache_cap =
  let port_r, port_w = Unix.pipe ~cloexec:true () in
  let ctl_r, ctl_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close port_r;
      Unix.close ctl_w;
      let code =
        try
          let srv = Server.create { Server.default_config with Server.port = 0; workers = 1; cache_cap } in
          let line = string_of_int (Server.port srv) ^ "\n" in
          ignore (Unix.write_substring port_w line 0 (String.length line));
          Unix.close port_w;
          let watch () =
            (try ignore (Unix.read ctl_r (Bytes.create 1) 0 1) with Unix.Unix_error _ -> ());
            Server.stop srv
          in
          ignore (Thread.create watch ());
          Server.run srv;
          0
        with e ->
          prerr_endline ("serve: server child: " ^ Printexc.to_string e);
          2
      in
      Unix._exit code
  | pid ->
      Unix.close port_w;
      Unix.close ctl_r;
      let ic = Unix.in_channel_of_descr port_r in
      let line = In_channel.input_line ic in
      close_in ic;
      let port =
        match Option.bind line int_of_string_opt with
        | Some p -> p
        | None -> check_failed "serve: server child did not report a port"
      in
      let rec ready tries =
        match Client.request ~port ~meth:"GET" ~path:"/healthz" () with
        | Ok { Client.status = 200; _ } -> ()
        | _ when tries > 0 ->
            Unix.sleepf 0.01;
            ready (tries - 1)
        | _ -> check_failed "serve: /healthz never answered"
      in
      ready 500;
      { pid; port; ctl = ctl_w }

let stop_server s =
  Unix.close s.ctl;
  match Unix.waitpid [] s.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> check_failed "serve: server child did not exit cleanly"

let serve cfg =
  let wires = Array.of_list (Specs.serve cfg.size cfg.seed) in
  let trace = Specs.serve_trace cfg.size in
  (* Spec index → the first body served for it, marker-normalized; every
     later body must equal it. *)
  let first_body = Array.make (Array.length wires) None in
  let mismatch = ref None in
  let see idx normalized =
    match first_body.(idx) with
    | None -> first_body.(idx) <- Some normalized
    | Some b when String.equal b normalized -> ()
    | Some _ -> mismatch := Some idx
  in
  let cache_cap = Specs.serve_cache_cap cfg.size in
  (* One replay of the trace: each request waits for the previous reply. *)
  let replay ~port ~span =
    let hits = ref [] and misses = ref [] and ok = ref 0 in
    let t0 = now_ns () in
    Array.iteri
      (fun pos idx ->
        let a = now_ns () in
        let r = Ledger.post ~port wires.(idx) in
        let b = now_ns () in
        Option.iter (fun parent -> ignore (add_span ~parent "serve.request" a b)) span;
        match r with
        | Ok { Client.status = 200; body; _ } ->
            let kind, normalized = Outcomes.classify body in
            see idx normalized;
            incr ok;
            if kind = Outcomes.Hit then hits := (pos, b - a) :: !hits else misses := (pos, b - a) :: !misses
        | Ok { Client.status; _ } -> Printf.eprintf "serve: HTTP %d\n%!" status
        | Error msg -> Printf.eprintf "serve: %s\n%!" msg)
      trace;
    let wall = now_ns () - t0 in
    slice ~wall_ns:wall ~ops:!ok ~attempted:(Array.length trace) ~common:!hits ~expensive:!misses ~busy_ns:wall
      ~hits:(List.length !hits) ()
  in
  let srv, setup, _ =
    repeated_setup cfg ~teardown:stop_server (fun () ->
        Array.iter (fun w -> ignore (decode w)) wires;
        let srv = start_server ~cache_cap in
        (* Untimed warm-up: one replay brings the LRU to the state every
           later replay starts from, so all replays do the same work. *)
        ignore (replay ~port:srv.port ~span:None);
        srv)
  in
  let window ~seconds ~span = slices ~seconds (fun () -> replay ~port:srv.port ~span) in
  let ws = windows cfg window in
  (* Digest a fixed prefix of the specs, served now; the first few are
     also run in this process and must match what the server returned. *)
  let verify = match cfg.size with Specs.Full -> 64 | Specs.Smoke -> 16 in
  let fields =
    List.init verify (fun i ->
        let body = Ledger.ok_body "serve verify" (Ledger.post ~port:srv.port wires.(i)) in
        see i (snd (Outcomes.classify body));
        let f = Outcomes.result_fields body in
        Outcomes.check ~what:"serve" (Outcomes.expect (decode wires.(i))) f;
        if i < 4 && f <> Outcomes.of_outcome (Scenario.run (decode wires.(i))) then
          check_failed "serve: served outcome differs from an in-process run (spec %d)" i;
        f)
  in
  Option.iter (fun idx -> check_failed "serve: a hit body differs from its miss (spec %d)" idx) !mismatch;
  let plain = fst ws in
  let info =
    ("hit_share", Json.Float (float_of_int (sum (fun s -> s.hits) plain) /. float_of_int (max 1 (sum (fun s -> s.ops) plain))))
    ::
    (if cfg.trace then
       let j = parse_json "/metrics" (Ledger.ok_body "GET /metrics" (Client.request ~port:srv.port ~meth:"GET" ~path:"/metrics" ())) in
       [ ("server_cache", member "cache" j); ("server_jobs", member "jobs" j) ]
     else [])
  in
  let rss = peak_rss_mb ~pid:srv.pid () in
  stop_server srv;
  report cfg ~wires:(Array.to_list wires) ~setup ~rss ~digest:(Outcomes.digest fields) ~info ws

(* ---- big-run ---- *)

(* The child side: decode one spec and run it, then print one JSON line
   with the run's timestamps, GC counters, peak RSS and outcome. *)
let child_run wire =
  let spec = decode wire in
  let g0 = Gc.quick_stat () in
  let t_call = now_ns () in
  let o = Scenario.run spec in
  let t_done = now_ns () in
  let g1 = Gc.quick_stat () in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("t_call_ns", Json.Int t_call);
            ("t_done_ns", Json.Int t_done);
            ("major_collections", Json.Int (g1.Gc.major_collections - g0.Gc.major_collections));
            ("minor_words", Json.Float (g1.Gc.minor_words -. g0.Gc.minor_words));
            ("peak_rss_mb", Json.Float (peak_rss_mb ()));
            ("outcome", Scenario.outcome_to_json o);
          ]))

let big_run cfg =
  let wire = Specs.big_run cfg.size cfg.seed in
  let expect = Outcomes.expect (decode wire) in
  let children = ref [] in
  let min_children = match cfg.size with Specs.Full -> 1 | Specs.Smoke -> 2 in
  let window ~seconds ~span =
    slices ~min:min_children ~seconds (fun () ->
        let t_spawn = now_ns () in
        let r = run_self [ "--child-run"; wire ] in
        let t_end = now_ns () in
        match r with
        | Error msg ->
            Printf.eprintf "big-run: %s\n%!" msg;
            slice ~wall_ns:(t_end - t_spawn) ~ops:0 ~attempted:1 ()
        | Ok line ->
            let t_call = to_int (member "t_call_ns" line) and t_done = to_int (member "t_done_ns" line) in
            Option.iter
              (fun parent ->
                let id = add_span ~parent "big-run.child" t_spawn t_end in
                ignore (add_span ~parent:id "big-run.setup" t_spawn t_call);
                ignore (add_span ~parent:id "big-run.run" t_call t_done))
              span;
            let f = Outcomes.of_json (member "outcome" line) in
            Outcomes.check ~what:"big-run" expect f;
            children := (line, f) :: !children;
            slice ~wall_ns:(t_end - t_spawn) ~ops:1 ~attempted:1
              ~common:[ (0, t_done - t_call) ]
              ~expensive:[ (0, t_end - t_spawn) ]
              ~setup_ns:(float_of_int (t_call - t_spawn))
              ~busy_ns:(t_done - t_call) ())
  in
  let ws = windows cfg window in
  let cs = !children in
  if List.length cs < min_children then check_failed "big-run: too few children finished";
  let digest = same_digest ~workload:"big-run" (List.map (fun (_, f) -> Outcomes.digest [ f ]) cs) in
  let med key = median (List.map (fun (line, _) -> to_float (member key line)) cs) in
  (* Each child is one set-up: process start to the Scenario.run call. *)
  let setup =
    let plain = fst ws in
    {
      normalized_s = over (fun s ~scale -> scale s.setup_ns /. 1e9) plain;
      raw_s = over ~raw:true (fun s ~scale -> scale s.setup_ns /. 1e9) plain;
    }
  in
  let info =
    [
      ("child_major_collections", Json.Float (med "major_collections"));
      ("child_minor_words", Json.Float (med "minor_words"));
      ("children", Json.Int (List.length cs));
    ]
  in
  report cfg ~wires:[ wire ] ~setup ~rss:(med "peak_rss_mb") ~digest ~info ws

let all = [ ("sweep", sweep); ("seed-batch", seed_batch); ("serve", serve); ("big-run", big_run) ]
