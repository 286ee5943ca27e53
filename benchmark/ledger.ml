(* The per-layer ledger of a traced run. Each layer is timed from
   outside, through its public calls, on the workload's own specs, and
   every timing is recorded as a span (parent: the "ledger" span). A
   layer that a workload only touches lightly still shows its cost on
   that workload's inputs; README.md maps each row to the end-to-end
   metric and workload it should move. *)

open Common
module Scenario = Bfdn_scenario.Scenario
module Batch = Bfdn_engine.Batch
module Seed_batch = Bfdn_engine.Seed_batch
module Result_cache = Bfdn_serve.Result_cache
module Http = Bfdn_serve.Http
module Server = Bfdn_serve.Server
module Client = Bfdn_serve.Client

let spec_of_wire wire =
  match Scenario.of_string wire with
  | Ok s -> s
  | Error msg -> check_failed "spec rejected: %s" msg

let lane0 (spec : Scenario.t) = if spec.batch_seeds > 1 then Scenario.unbatch spec 0 else spec

let rec take n = function [] -> [] | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let p50 name = median (durations name)

let post ~port wire = Client.request ~port ~body:wire ~meth:"POST" ~path:"/run" ()

let ok_body what = function
  | Ok { Client.status = 200; body; _ } -> body
  | Ok { Client.status; _ } -> check_failed "%s: HTTP %d" what status
  | Error msg -> check_failed "%s: %s" what msg

(* ---- the hit path: everything a cached POST /run does before the
   cached body goes out ---- *)

let request_bytes wire =
  Printf.sprintf
    "POST /run HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    (String.length wire) wire

let hit_path ~parent wires =
  let reps = max 1 (256 / List.length wires) in
  List.iter
    (fun wire ->
      for _ = 1 to reps do
        let j, _ =
          timed ~parent "obs.json_parse" (fun () ->
              match Json.of_string wire with Ok j -> j | Error m -> check_failed "spec JSON: %s" m)
        in
        let spec, _ =
          timed ~parent "scenario.decode" (fun () ->
              match Scenario.of_json j with
              | Error m -> check_failed "spec decode: %s" m
              | Ok s -> (
                  match Scenario.validate s with Ok () -> s | Error m -> check_failed "spec: %s" m))
        in
        ignore (timed ~parent "scenario.fingerprint" (fun () -> Scenario.fingerprint spec));
        let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close a; Unix.close b)
          (fun () ->
            Http.write_all a (request_bytes wire);
            match fst (timed ~parent "serve.http_parse" (fun () -> Http.read_request (Http.reader b))) with
            | Ok req when String.equal req.Http.body wire -> ()
            | Ok _ -> check_failed "HTTP parse changed the body"
            | Error m -> check_failed "HTTP parse: %s" m)
      done)
    wires

(* [Result_cache.find] on a full cache of the default capacity, keyed by
   fingerprints of seed variants of the workload's specs. *)
let cache_find ~parent specs body =
  let cap = 256 in
  let base = Array.of_list specs in
  let keys =
    Array.init cap (fun i ->
        let s : Scenario.t = base.(i mod Array.length base) in
        Scenario.fingerprint { s with seed = s.seed + (7919 * (i / Array.length base)) })
  in
  let cache = Result_cache.create ~cap in
  Array.iter (fun k -> Result_cache.put cache k body) keys;
  for _ = 1 to 2 do
    Array.iter
      (fun k ->
        if Option.is_none (fst (timed ~parent "serve.cache_find" (fun () -> Result_cache.find cache k)))
        then check_failed "result cache lost a key")
      keys
  done

(* An in-process server, unloaded, one client: a miss and then hits for
   each spec. *)
let serve_probe ~parent wires =
  let srv = Server.create { Server.default_config with Server.port = 0; workers = 1 } in
  let th = Thread.create Server.run srv in
  let port = Server.port srv in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th)
    (fun () ->
      let wires = take 16 wires in
      let hits = max 3 (48 / List.length wires) in
      List.iter
        (fun wire ->
          let body = ok_body "probe miss" (fst (timed ~parent "serve.miss" (fun () -> post ~port wire))) in
          if fst (Outcomes.classify body) <> Outcomes.Miss then check_failed "probe: first request hit";
          for _ = 1 to hits do
            let hit = ok_body "probe hit" (fst (timed ~parent "serve.hit" (fun () -> post ~port wire))) in
            match Outcomes.classify hit with
            | Outcomes.Hit, h when String.equal h body -> ()
            | _ -> check_failed "probe: hit body differs from its miss"
          done)
        wires)

(* ---- runs: Scenario.run, its render, and the tree decomposition
   build + run_on_tree ---- *)

type runs = {
  minor_per_round : float list;
  major : int;
  ns_per_robot_round : float list;
  eager : int * int; (* Σ build + run_on_tree, Σ Scenario.run *)
  lazy_ : int * int;
  body : string; (* a rendered outcome, the cache value *)
}

let runs ~parent specs =
  let minor = ref [] and major = ref 0 and nprr = ref [] in
  let eager = ref (0, 0) and lazy_ = ref (0, 0) and body = ref "" in
  List.iter
    (fun (spec : Scenario.t) ->
      let m0 = Gc.minor_words () and c0 = (Gc.quick_stat ()).Gc.major_collections in
      let o, run_ns = timed ~parent "scenario.run" (fun () -> Scenario.run spec) in
      let m1 = Gc.minor_words () and c1 = (Gc.quick_stat ()).Gc.major_collections in
      let f = Outcomes.of_outcome o in
      let rounds = max 1 (Outcomes.get "rounds" f) in
      minor := ((m1 -. m0) /. float_of_int rounds) :: !minor;
      major := !major + (c1 - c0);
      body := fst (timed ~parent "scenario.render" (fun () -> Json.to_string (Scenario.outcome_to_json o)));
      let per_robot_round ns = float_of_int ns /. float_of_int (spec.k * rounds) in
      match Outcomes.world spec with
      | Outcomes.Tree ->
          let tree, build_ns = timed ~parent "trees.build" (fun () -> Scenario.materialize spec) in
          let o2, loop_ns = timed ~parent "sim.run_on_tree" (fun () -> Scenario.run_on_tree spec tree) in
          if Outcomes.of_outcome o2 <> f then
            check_failed "run_on_tree differs from run: %s" (Scenario.describe spec);
          nprr := per_robot_round loop_ns :: !nprr;
          let p, r = !eager in
          eager := (p + build_ns + loop_ns, r + run_ns)
      | Outcomes.Lazy_tree ->
          (* The lazy world generates nodes inside the round loop, so the
             loop cost is the whole run; the eager build + run of the same
             instance is what the decomposition compares it with. *)
          let tree, build_ns = timed ~parent "trees.build" (fun () -> Scenario.materialize spec) in
          let _, loop_ns = timed ~parent "sim.run_on_tree" (fun () -> Scenario.run_on_tree spec tree) in
          nprr := per_robot_round run_ns :: !nprr;
          let p, r = !lazy_ in
          lazy_ := (p + build_ns + loop_ns, r + run_ns)
      | Outcomes.Graph | Outcomes.Adversarial -> ())
    specs;
  {
    minor_per_round = !minor;
    major = !major;
    ns_per_robot_round = !nprr;
    eager = !eager;
    lazy_ = !lazy_;
    body = !body;
  }

(* ---- engine: seed batching and worker contention ---- *)

(* Share of lanes in collapsed batches, and batch wall over the same lanes
   run one by one (non-collapsing batches only). *)
let batches ~parent specs =
  let lanes = ref 0 and collapsed = ref 0 and batch_ns = ref 0 and seq_ns = ref 0 in
  List.iter
    (fun (spec : Scenario.t) ->
      let r, ns = timed ~parent "engine.seed_batch" (fun () -> Seed_batch.run spec) in
      lanes := !lanes + spec.batch_seeds;
      if r.Seed_batch.collapsed then collapsed := !collapsed + spec.batch_seeds
      else begin
        batch_ns := !batch_ns + ns;
        for i = 0 to spec.batch_seeds - 1 do
          let lane = if spec.batch_seeds > 1 then Scenario.unbatch spec i else spec in
          let o, ns = timed ~parent "engine.lane_sequential" (fun () -> Scenario.run lane) in
          if Outcomes.of_outcome o <> Outcomes.of_outcome r.Seed_batch.outcomes.(i) then
            check_failed "batched lane %d differs from its plain run: %s" i (Scenario.describe spec);
          seq_ns := !seq_ns + ns
        done
      end)
    specs;
  ( float_of_int !collapsed /. float_of_int !lanes,
    if !seq_ns = 0 then nan else float_of_int !batch_ns /. float_of_int !seq_ns )

(* Σ job wall of one Batch.map pass at [workers] over the same pass at 1
   worker: how much running side by side slows each job. *)
let job_inflation ~parent ~workers specs =
  let jobs = Array.of_list specs in
  let jobs = if Array.length jobs < workers then Array.concat (List.init workers (fun _ -> jobs)) else jobs in
  let sum_at w =
    let res, _ =
      timed ~parent (Printf.sprintf "engine.pass_w%d" w) (fun () ->
          Batch.map ~workers:w
            (fun s ->
              let t0 = now_ns () in
              ignore (Scenario.run s);
              now_ns () - t0)
            jobs)
    in
    Array.fold_left
      (fun acc -> function Ok ns -> acc + ns | Error m -> check_failed "engine job failed: %s" m)
      0 res
  in
  let one = sum_at 1 in
  float_of_int (sum_at workers) /. float_of_int one

(* ---- the ledger ---- *)

let ratio (parts, whole) = if whole = 0 then nan else float_of_int parts /. float_of_int whole

let measure ~workers wires =
  with_span "ledger" (fun parent ->
      hit_path ~parent wires;
      let specs = List.map spec_of_wire (take 96 wires) in
      let plain = List.map lane0 specs in
      let r = runs ~parent plain in
      cache_find ~parent plain r.body;
      serve_probe ~parent (List.map Scenario.to_string plain);
      let collapsed, batch_vs_seq = batches ~parent specs in
      let inflation = job_inflation ~parent ~workers plain in
      let eager = ratio r.eager in
      if (not (Float.is_nan eager)) && Float.abs (eager -. 1.) > 0.10 then
        Printf.eprintf "warning: trees.build + run_on_tree is %.3fx Scenario.run (outside 10%%)\n%!" eager;
      let us name = p50 name /. 1e3 in
      let hit_layers =
        List.fold_left ( +. ) 0.
          (List.map us
             [ "serve.http_parse"; "obs.json_parse"; "scenario.decode"; "scenario.fingerprint"; "serve.cache_find" ])
      in
      [
        ("obs.json_parse_us", us "obs.json_parse", "us");
        ("scenario.decode_us", us "scenario.decode", "us");
        ("scenario.fingerprint_us", us "scenario.fingerprint", "us");
        ("scenario.render_us", us "scenario.render", "us");
        ("serve.http_parse_us", us "serve.http_parse", "us");
        ("serve.cache_find_us", us "serve.cache_find", "us");
        ("serve.hit_p50_us", us "serve.hit", "us");
        ("serve.miss_p50_ms", p50 "serve.miss" /. 1e6, "ms");
        ("serve.unattributed_us", us "serve.hit" -. hit_layers, "us");
        ("scenario.run_ms", p50 "scenario.run" /. 1e6, "ms");
        ("trees.build_ms", p50 "trees.build" /. 1e6, "ms");
        ("trees.decomposition_ratio", (if Float.is_nan eager then ratio r.lazy_ else eager), "ratio");
        ("sim.ns_per_robot_round", median r.ns_per_robot_round, "ns");
        ("sim.minor_words_per_round", median r.minor_per_round, "words");
        ("gc.major_collections_per_run", float_of_int r.major /. float_of_int (List.length plain), "count");
        ("engine.job_inflation", inflation, "ratio");
        ("engine.collapsed_lane_share", collapsed, "ratio");
        ("engine.batch_vs_sequential", batch_vs_seq, "ratio");
      ])
