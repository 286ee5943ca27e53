(* E18 — service throughput: the serve subsystem measured end to end
   over real sockets. An in-process server (ephemeral port, engine pool
   at --jobs workers) takes one cold submission per distinct spec (each
   a full engine run populating the result cache), then 4 concurrent
   client threads hammer the same specs for a fixed window — every
   request a cache hit served straight from the LRU. Reported: per-spec
   cold latency, sustained cached req/s with p50/p99 latency, and the
   cold-vs-cached speedup (the acceptance bar is >= 10x: a cache hit
   must cost network + parsing, not an engine run).

   The numbers land in BENCH_serve.json; --perf-gate re-measures the
   cached path against the committed req/s (loose floor, same
   machine-variance caveats as the E16 gate). *)

open Bench_common
module Server = Bfdn_serve.Server
module Client = Bfdn_serve.Client

let report_path = "BENCH_serve.json"
let client_threads = 4
let nominal_n = 2000

let specs () =
  List.concat_map
    (fun family ->
      List.map
        (fun seed ->
          ( family,
            seed,
            Scenario.to_string
              (Scenario.make ~k:8 ~seed
                 (Scenario.generated ~family ~n:(sized nominal_n)
                    ~depth_hint:12)) ))
        [ 1; 2; 3 ])
    [ "comb"; "binary"; "random"; "trap" ]

let window_s () =
  match !scale with Quick -> 0.5 | Normal -> 2.0 | Full -> 5.0

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let post port body =
  match Client.request ~port ~body ~meth:"POST" ~path:"/run" () with
  | Ok resp when resp.Client.status = 200 -> resp
  | Ok resp ->
      failwith (Printf.sprintf "e_serve: POST /run -> %d" resp.Client.status)
  | Error msg -> failwith ("e_serve: " ^ msg)

let cache_marker resp =
  match Json.of_string resp.Client.body with
  | Ok j -> (
      match Json.member "cache" j with
      | Some (Json.String s) -> s
      | _ -> "?")
  | Error _ -> "?"

let with_server f =
  let srv =
    Server.create
      {
        Server.default_config with
        Server.port = 0;
        workers = !Bench_common.workers;
        cache_cap = 256;
      }
  in
  let th = Thread.create Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th)
    (fun () -> f (Server.port srv))

type measurement = {
  cold : (string * int * float) list; (* family, seed, wall seconds *)
  cold_mean_s : float;
  cached_requests : int;
  cached_window_s : float;
  cached_req_s : float;
  cached_p50_s : float;
  cached_p99_s : float;
  speedup : float;
}

let measure () =
  with_server (fun port ->
      let specs = specs () in
      (* cold: every distinct spec runs the engine once *)
      let cold =
        List.map
          (fun (family, seed, wire) ->
            let t0 = Batch.now () in
            let resp = post port wire in
            let dt = Batch.now () -. t0 in
            if cache_marker resp <> "miss" then
              failwith "e_serve: expected a cold miss";
            (family, seed, dt))
          specs
      in
      let cold_mean_s =
        List.fold_left (fun acc (_, _, dt) -> acc +. dt) 0.0 cold
        /. float_of_int (List.length cold)
      in
      (* cached: concurrent clients over the now-populated cache *)
      let wires = Array.of_list (List.map (fun (_, _, w) -> w) specs) in
      let window = window_s () in
      let stop_at = Batch.now () +. window in
      let lats = Array.make client_threads [] in
      let counts = Array.make client_threads 0 in
      let client t =
        let i = ref t in
        while Batch.now () < stop_at do
          let wire = wires.(!i mod Array.length wires) in
          incr i;
          let t0 = Batch.now () in
          let resp = post port wire in
          let dt = Batch.now () -. t0 in
          if cache_marker resp <> "hit" then
            failwith "e_serve: expected a cached hit";
          lats.(t) <- dt :: lats.(t);
          counts.(t) <- counts.(t) + 1
        done
      in
      let t_start = Batch.now () in
      let threads = List.init client_threads (fun t -> Thread.create client t) in
      List.iter Thread.join threads;
      let elapsed = Batch.now () -. t_start in
      let all = Array.of_list (List.concat (Array.to_list lats)) in
      Array.sort compare all;
      let requests = Array.fold_left ( + ) 0 counts in
      let mean_cached =
        Array.fold_left ( +. ) 0.0 all /. float_of_int (max 1 (Array.length all))
      in
      {
        cold;
        cold_mean_s;
        cached_requests = requests;
        cached_window_s = elapsed;
        cached_req_s = float_of_int requests /. Float.max 1e-9 elapsed;
        cached_p50_s = percentile all 0.50;
        cached_p99_s = percentile all 0.99;
        speedup = cold_mean_s /. Float.max 1e-9 mean_cached;
      })

let run () =
  header "E18 (serve)"
    "service throughput: cold engine runs vs cached hits over real sockets";
  let m = measure () in
  let t =
    Table.create ~caption:"cold submissions (one engine run each)"
      [ ("family", Table.Left); ("seed", Table.Right); ("wall ms", Table.Right) ]
  in
  List.iter
    (fun (family, seed, dt) ->
      Table.add_row t
        [ family; Table.fint seed; Table.ffloat ~decimals:2 (dt *. 1e3) ])
    m.cold;
  Table.print t;
  Printf.printf
    "cached (%d client threads, %.1fs window): %d requests, %.0f req/s\n"
    client_threads m.cached_window_s m.cached_requests m.cached_req_s;
  Printf.printf "cached latency: p50 %.3f ms, p99 %.3f ms\n"
    (m.cached_p50_s *. 1e3) (m.cached_p99_s *. 1e3);
  Printf.printf "cold-vs-cached speedup: %.1fx (target >= 10x)\n" m.speedup;
  Engine_report.write ~path:report_path
    (Json.Obj
       (Engine_report.meta ~seed ~workers:!Bench_common.workers
       @ [
           ("label", Json.String "E18 service throughput");
           ("scale", Json.String (scale_name ()));
           ("client_threads", Json.Int client_threads);
           ( "cold",
             Json.List
               (List.map
                  (fun (family, sd, dt) ->
                    Json.Obj
                      [
                        ("family", Json.String family);
                        ("seed", Json.Int sd);
                        ("wall_seconds", Json.Float dt);
                      ])
                  m.cold) );
           ("cold_mean_seconds", Json.Float m.cold_mean_s);
           ("cached_requests", Json.Int m.cached_requests);
           ("cached_window_seconds", Json.Float m.cached_window_s);
           ("cached_req_per_sec", Json.Float m.cached_req_s);
           ("cached_p50_seconds", Json.Float m.cached_p50_s);
           ("cached_p99_seconds", Json.Float m.cached_p99_s);
           ("speedup_cold_vs_cached", Json.Float m.speedup);
         ]));
  Printf.printf "report written to %s\n" report_path

(* ---- CI perf-regression gate (--perf-gate) ----

   Re-measure the cached path at the scale the committed BENCH_serve.json
   records (its window length sets how much of the measurement is warm-up)
   and fail when sustained req/s drops below [gate_floor] of its value.
   Same philosophy as the E16 gate: a loose floor that catches
   accidental slow paths (a cache hit suddenly running the engine, a
   lock held across a syscall), not machine variance. The driver only
   invokes this when the report file exists, so a tree that has never
   run E18 still gates cleanly on the other files. *)

let gate_floor = 0.5

let perf_gate () =
  header "PERF GATE (serve)"
    (Printf.sprintf "cached req/s >= %.2fx the committed %s" gate_floor
       report_path);
  let committed = committed report_path "cached_req_per_sec" in
  scale := committed_scale report_path;
  check_gate ~gate:"E18" ~name:"cached req/s" (measure ()).cached_req_s
    (Relative { committed; floor = gate_floor })
