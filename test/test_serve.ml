(* Tests for the scenario-execution service: fingerprint soundness over
   the golden suite, the LRU result cache (eviction order, byte-identical
   hit/miss, concurrent access), HTTP framing and routing units, admission
   backpressure, and — over real sockets — end-to-end determinism
   (an HTTP submission reproduces the in-process outcome byte for byte),
   timeout cancellation leaving the pool usable, and graceful drain. *)

module Json = Bfdn_obs.Json
module Param = Bfdn_scenario.Param
module Scenario = Bfdn_scenario.Scenario
module Http = Bfdn_serve.Http
module Router = Bfdn_serve.Router
module Result_cache = Bfdn_serve.Result_cache
module Q = Bfdn_serve.Queue_admission
module Server = Bfdn_serve.Server
module Client = Bfdn_serve.Client

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let check_sl = Alcotest.(check (list string))

(* ---- fingerprint ---- *)

(* The 42 golden configs of test_golden.ml: 7 families × 3 anchor
   policies × shortcut ∈ {false, true}. *)
let golden_specs () =
  let families =
    [ "comb"; "binary"; "random"; "trap"; "caterpillar"; "spider"; "hidden-path" ]
  and policies = [ "least-loaded"; "first-open"; "random-open" ] in
  let specs = ref [] in
  let idx = ref 0 in
  List.iter
    (fun family ->
      List.iter
        (fun policy ->
          List.iter
            (fun shortcut ->
              let seed = 1000 + !idx in
              incr idx;
              specs :=
                Scenario.make ~algo:"bfdn"
                  ~algo_params:
                    [
                      ("policy", Param.String policy);
                      ("shortcut", Param.Bool shortcut);
                    ]
                  ~k:9 ~seed
                  (Scenario.generated ~family ~n:500 ~depth_hint:12)
                :: !specs)
            [ false; true ])
        policies)
    families;
  !specs

let test_fingerprint_collision_free () =
  let fps = List.map Scenario.fingerprint (golden_specs ()) in
  checki "42 golden configs" 42 (List.length fps);
  let distinct = List.sort_uniq compare fps in
  checki "all fingerprints distinct" 42 (List.length distinct);
  List.iter
    (fun fp ->
      checki "16 hex chars" 16 (String.length fp);
      String.iter
        (fun c ->
          checkb "lowercase hex" true
            ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
        fp)
    fps

let test_fingerprint_ignores_metrics_flag () =
  let spec =
    Scenario.make ~k:4 ~seed:11 (Scenario.generated ~family:"comb" ~n:60 ~depth_hint:5)
  in
  checks "metrics flag is advisory"
    (Scenario.fingerprint { spec with Scenario.metrics = false })
    (Scenario.fingerprint { spec with Scenario.metrics = true });
  checkb "seed is load-bearing" false
    (String.equal
       (Scenario.fingerprint spec)
       (Scenario.fingerprint { spec with Scenario.seed = 12 }))

(* ---- result cache ---- *)

let test_cache_lru_eviction () =
  let c = Result_cache.create ~cap:3 in
  Result_cache.put c "a" "1";
  Result_cache.put c "b" "2";
  Result_cache.put c "c" "3";
  check_sl "mru order after fills" [ "c"; "b"; "a" ] (Result_cache.keys_mru c);
  (* touching [a] promotes it, so [b] is now the eviction candidate *)
  checkb "find a" true (Result_cache.find c "a" = Some "1");
  Result_cache.put c "d" "4";
  check_sl "b evicted, not a" [ "d"; "a"; "c" ] (Result_cache.keys_mru c);
  checkb "b gone" false (Result_cache.mem c "b");
  let s = Result_cache.stats c in
  checki "one eviction" 1 s.Result_cache.evictions;
  checki "size tracks" 3 s.Result_cache.size;
  (* refreshing an existing key neither grows nor evicts *)
  Result_cache.put c "c" "3'";
  checki "refresh keeps size" 3 (Result_cache.length c);
  checkb "refresh replaces body" true (Result_cache.find c "c" = Some "3'")

let test_cache_zero_cap_disabled () =
  let c = Result_cache.create ~cap:0 in
  Result_cache.put c "a" "1";
  checkb "never stores" true (Result_cache.find c "a" = None);
  checki "empty" 0 (Result_cache.length c)

let test_cache_hit_is_byte_identical () =
  let c = Result_cache.create ~cap:8 in
  let body = {|{"rounds":202,"explored":true}|} in
  Result_cache.put c "fp" body;
  match Result_cache.find c "fp" with
  | None -> Alcotest.fail "expected a hit"
  | Some got -> checks "hit returns the stored bytes" body got

let test_cache_concurrent_access () =
  (* 4 threads hammer a small cache with overlapping keys; the point is
     absence of torn state: every hit must return the exact body written
     for its key, and the final size must respect the cap. *)
  let c = Result_cache.create ~cap:8 in
  let body_of k = "body:" ^ k in
  let errors = Atomic.make 0 in
  let worker t =
    for i = 0 to 499 do
      let k = Printf.sprintf "k%d" ((i + t) mod 12) in
      (match Result_cache.find c k with
      | Some v when v <> body_of k -> Atomic.incr errors
      | _ -> ());
      Result_cache.put c k (body_of k)
    done
  in
  let threads = List.init 4 (fun t -> Thread.create worker t) in
  List.iter Thread.join threads;
  checki "no torn reads" 0 (Atomic.get errors);
  checkb "cap respected" true (Result_cache.length c <= 8);
  let s = Result_cache.stats c in
  checki "finds all accounted" (4 * 500) (s.Result_cache.hits + s.Result_cache.misses)

(* ---- http framing ---- *)

let parse_request raw =
  let r, w = Unix.pipe () in
  let writer = Thread.create (fun () ->
      Http.write_all w raw;
      Unix.close w)
      ()
  in
  let res = Http.read_request (Http.reader r) in
  Thread.join writer;
  Unix.close r;
  res

let test_http_parse_request () =
  match
    parse_request
      "POST /run?wait=0&x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\nX-Mixed-Case: V \r\n\r\nbody"
  with
  | Error e -> Alcotest.fail e
  | Ok req ->
      checks "method" "POST" req.Http.meth;
      check_sl "path segments" [ "run" ] req.Http.path;
      checkb "query decoded" true
        (Http.query_param "wait" req = Some "0" && Http.query_param "x" req = Some "1");
      checkb "headers lowercased, values trimmed" true
        (Http.header "x-mixed-case" req = Some "V"
        && Http.header "X-Mixed-Case" req = Some "V");
      checks "body" "body" req.Http.body

let test_http_parse_rejects () =
  List.iter
    (fun (what, raw) ->
      checkb what true (Result.is_error (parse_request raw)))
    [
      ("malformed request line", "GET\r\n\r\n");
      ("not http", "GET / FTP/1.1\r\n\r\n");
      ("bad content-length", "GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n");
      ( "body too large",
        "POST / HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n" );
      ("eof mid-headers", "GET / HTTP/1.1\r\nHost: h\r\n");
      ( "too many headers",
        "GET / HTTP/1.1\r\n"
        ^ String.concat ""
            (List.init 65 (fun i -> Printf.sprintf "H%d: v\r\n" i))
        ^ "\r\n" );
    ]

(* ---- router ---- *)

let test_router_dispatch () =
  let routes =
    [
      Router.route ~meth:"GET" "/jobs/:id/stream" `Stream;
      Router.route ~meth:"GET" "/jobs/:id" `Status;
      Router.route ~meth:"POST" "/run" `Run;
    ]
  in
  (match Router.dispatch routes ~meth:"GET" ~path:[ "jobs"; "7"; "stream" ] with
  | Router.Match (`Stream, params) ->
      checkb "captures id" true (List.assoc_opt "id" params = Some "7")
  | _ -> Alcotest.fail "expected stream match");
  (match Router.dispatch routes ~meth:"GET" ~path:[ "run" ] with
  | Router.Method_not_allowed allowed -> check_sl "allow list" [ "POST" ] allowed
  | _ -> Alcotest.fail "expected 405");
  match Router.dispatch routes ~meth:"GET" ~path:[ "nope" ] with
  | Router.Not_found -> ()
  | _ -> Alcotest.fail "expected 404"

(* ---- json position errors ---- *)

let test_json_position_errors () =
  match Json.of_string_pos "{\"a\": 1,\n  \"b\": nope}" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e ->
      checki "line" 2 e.Json.line;
      checkb "column points into line 2" true (e.Json.col >= 7 && e.Json.col <= 9);
      checkb "offset consistent with line/col" true (e.Json.offset >= 14);
      checkb "message survives rendering" true
        (String.length (Json.error_to_string e) > 0)

(* ---- admission ---- *)

let spec_small =
  Scenario.make ~k:4 ~seed:3 (Scenario.generated ~family:"comb" ~n:60 ~depth_hint:5)

let test_admission_bound_and_drain () =
  let q = Q.create ~cap:2 () in
  let admit () = Q.admit q ~timeout_s:1.0 ~fingerprint:"fp" spec_small in
  let j1 = Result.get_ok (admit ()) in
  let j2 = Result.get_ok (admit ()) in
  (match admit () with
  | Error `Full -> ()
  | _ -> Alcotest.fail "expected `Full past the cap");
  checki "inflight" 2 (Q.inflight q);
  checkb "retry-after positive" true (Q.retry_after_s q >= 1);
  Q.settle q j1 (Q.Done "{}");
  checkb "slot freed" true (Result.is_ok (admit ()));
  Q.drain q;
  (match admit () with
  | Error `Draining -> ()
  | _ -> Alcotest.fail "expected `Draining");
  (* drain cancelled the still-queued jobs; settling is idempotent *)
  checkb "queued jobs cancelled by drain" true (Q.state q j2 = Q.Cancelled);
  Q.await_idle q;
  checki "idle after drain" 0 (Q.inflight q);
  checkb "await returns the terminal state" true (Q.await q j1 = Q.Done "{}")

(* ---- end-to-end over real sockets ---- *)

let with_server ?(workers = 2) ?(queue_cap = 64) ?(cache_cap = 256)
    ?(timeout_s = 60.) ?postmortem_dir f =
  let config =
    {
      Server.default_config with
      Server.port = 0;
      workers;
      queue_cap;
      cache_cap;
      timeout_s;
      postmortem_dir;
    }
  in
  let srv = Server.create config in
  let th = Thread.create Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th)
    (fun () -> f (Server.port srv))

let post_run ?(query = "") port body =
  match
    Client.request ~port ~body ~meth:"POST" ~path:("/run" ^ query) ()
  with
  | Ok resp -> resp
  | Error msg -> Alcotest.fail ("POST /run: " ^ msg)

let get port path =
  match Client.request ~port ~meth:"GET" ~path () with
  | Ok resp -> resp
  | Error msg -> Alcotest.fail ("GET " ^ path ^ ": " ^ msg)

let member_string name body =
  match Json.of_string body with
  | Ok j -> (
      match Json.member name j with
      | Some (Json.String s) -> Some s
      | _ -> None)
  | Error _ -> None

(* The job id carried by a [?wait=0] ticket. *)
let ticket_id ticket =
  match Json.of_string ticket.Client.body with
  | Ok j -> (
      match Json.member "id" j with
      | Some (Json.Int id) -> id
      | _ -> Alcotest.fail "no id in ticket")
  | Error e -> Alcotest.fail e

let test_e2e_determinism_and_cache () =
  with_server (fun port ->
      let wire = Scenario.to_string spec_small in
      let expected =
        Json.to_string (Scenario.outcome_to_json (Scenario.run spec_small))
      in
      let miss = post_run port wire in
      checki "first submission runs" 200 miss.Client.status;
      checkb "marked miss" true (member_string "cache" miss.Client.body = Some "miss");
      let hit = post_run port wire in
      checki "second submission cached" 200 hit.Client.status;
      checkb "marked hit" true (member_string "cache" hit.Client.body = Some "hit");
      (* the embedded result must be byte-identical to the in-process
         run, and the hit and miss bodies must differ only in the cache
         marker *)
      let result_of body =
        match Json.of_string body with
        | Ok j -> (
            match Json.member "result" j with
            | Some r -> Json.to_string r
            | None -> Alcotest.fail "no result member")
        | Error e -> Alcotest.fail e
      in
      checks "HTTP result = in-process outcome" expected (result_of miss.Client.body);
      checks "hit byte-identical to miss" (result_of miss.Client.body)
        (result_of hit.Client.body);
      (* metrics flag must not defeat the cache *)
      let with_metrics =
        Scenario.to_string { spec_small with Scenario.metrics = true }
      in
      checkb "metrics variant hits too" true
        (member_string "cache" (post_run port with_metrics).Client.body = Some "hit");
      (* graph worlds run through the same executor, fingerprint and
         cache: a version-2 grid spec must miss, then hit byte-identically *)
      let grid_spec =
        Scenario.make ~algo:"bfdn-graph" ~k:5 ~seed:21
          (Scenario.world
             ~params:
               [
                 ("height", Param.Int 6);
                 ("obstacles", Param.Int 2);
                 ("width", Param.Int 8);
               ]
             "grid")
      in
      let grid_wire = Scenario.to_string grid_spec in
      let grid_expected =
        Json.to_string (Scenario.outcome_to_json (Scenario.run grid_spec))
      in
      let gmiss = post_run port grid_wire in
      checki "grid submission runs" 200 gmiss.Client.status;
      checkb "grid first is a miss" true
        (member_string "cache" gmiss.Client.body = Some "miss");
      checks "grid HTTP result = in-process outcome" grid_expected
        (result_of gmiss.Client.body);
      let ghit = post_run port grid_wire in
      checkb "grid second is a hit" true
        (member_string "cache" ghit.Client.body = Some "hit");
      checks "grid hit byte-identical to miss" (result_of gmiss.Client.body)
        (result_of ghit.Client.body))

let test_e2e_concurrent_clients () =
  with_server (fun port ->
      let wire = Scenario.to_string spec_small in
      let expected =
        Json.to_string (Scenario.outcome_to_json (Scenario.run spec_small))
      in
      let results = Array.make 4 None in
      let client i =
        match Client.request ~port ~body:wire ~meth:"POST" ~path:"/run" () with
        | Ok resp -> results.(i) <- Some resp
        | Error _ -> ()
      in
      let threads = List.init 4 (fun i -> Thread.create client i) in
      List.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          match r with
          | None -> Alcotest.fail (Printf.sprintf "client %d got no response" i)
          | Some resp ->
              checki (Printf.sprintf "client %d status" i) 200 resp.Client.status;
              checkb
                (Printf.sprintf "client %d result bytes" i)
                true
                (let b = resp.Client.body in
                 (* the result segment is the canonical outcome either way *)
                 match Json.of_string b with
                 | Ok j -> (
                     match Json.member "result" j with
                     | Some r -> String.equal (Json.to_string r) expected
                     | None -> false)
                 | Error _ -> false))
        results)

let test_e2e_bad_spec_400 () =
  with_server (fun port ->
      let resp = post_run port "{\"a\": 1,\n  \"b\": nope}" in
      checki "malformed json is 400" 400 resp.Client.status;
      (match Json.of_string resp.Client.body with
      | Ok j ->
          checkb "error body carries the position" true
            (Json.member "line" j = Some (Json.Int 2)
            && Json.member "offset" j <> None)
      | Error e -> Alcotest.fail e);
      let resp =
        post_run port
          {|{"schema_version":1,"world":{"name":"comb"},"algo":{"name":"zap"},"k":1,"seed":0}|}
      in
      checki "unknown algorithm is 400" 400 resp.Client.status;
      let resp =
        post_run port
          {|{"schema_version":1,"adversary":{"name":"miser","params":{"capacity":0}},"algo":{"name":"bfdn"},"k":1,"seed":0}|}
      in
      checki "adversary capacity 0 is 400" 400 resp.Client.status;
      let resp =
        post_run port
          {|{"schema_version":2,"world":{"name":"grid","params":{"width":0}},"algo":{"name":"bfdn-graph"},"k":1,"seed":0}|}
      in
      checki "grid width 0 is 400" 400 resp.Client.status;
      (* k sizes per-robot arrays: above the cap it is refused before
         anything is allocated, and the server keeps serving *)
      List.iter
        (fun k ->
          let resp =
            post_run port
              (Printf.sprintf
                 {|{"schema_version":1,"world":{"name":"path","params":{"n":10}},"algo":{"name":"bfdn"},"k":%d,"seed":0}|}
                 k)
          in
          checki (Printf.sprintf "k = %d is 400" k) 400 resp.Client.status)
        [ (1 lsl 20) + 1; 100_000_000_000 ];
      checki "healthz still 200" 200 (get port "/healthz").Client.status;
      let resp = get port "/nope" in
      checki "unknown path is 404" 404 resp.Client.status)

let spec_wire_other =
  Scenario.to_string
    (Scenario.make ~k:4 ~seed:6 (Scenario.generated ~family:"comb" ~n:60 ~depth_hint:5))

let test_e2e_backpressure_429 () =
  (* one worker, admission bound 1: while the first job occupies the
     slot, the second submission must be refused up front — 429 with a
     Retry-After — without ever running. *)
  with_server ~workers:1 ~queue_cap:1 ~cache_cap:0 (fun port ->
      let slow =
        Scenario.to_string
          (Scenario.make ~k:4 ~seed:5
             (Scenario.generated ~family:"random" ~n:20000 ~depth_hint:40))
      in
      let first = post_run ~query:"?wait=0" port slow in
      checki "slow job admitted" 202 first.Client.status;
      let refused = post_run ~query:"?wait=0" port spec_wire_other in
      checki "second refused while full" 429 refused.Client.status;
      checkb "retry-after advertised" true
        (match Client.response_header "Retry-After" refused with
        | Some v -> int_of_string_opt v <> None
        | None -> false);
      checkb "refused without running" true
        (member_string "error" refused.Client.body <> None))

let test_e2e_timeout_cancels_cleanly () =
  with_server ~workers:1 ~cache_cap:0 (fun port ->
      let big =
        Scenario.to_string
          (Scenario.make ~k:4 ~seed:5
             (Scenario.generated ~family:"random" ~n:50000 ~depth_hint:60))
      in
      let resp = post_run ~query:"?timeout_s=0.005" port big in
      checki "timed-out job is 504" 504 resp.Client.status;
      checkb "reported as timeout" true
        (member_string "status" resp.Client.body = Some "timeout");
      (* the pool must still be usable after the cancellation *)
      let ok = post_run port (Scenario.to_string spec_small) in
      checki "pool survives the cancel" 200 ok.Client.status)

(* The deadline reaches a batched spec through the batch engine's
   per-round tick: a non-collapsing batch (randomized family, every lane
   executes) times out cleanly and leaves the pool usable. *)
let test_e2e_batched_timeout () =
  with_server ~workers:1 ~cache_cap:0 (fun port ->
      let big =
        Scenario.to_string
          (Scenario.make ~k:4 ~seed:5 ~batch_seeds:8
             (Scenario.generated ~family:"random" ~n:50000 ~depth_hint:60))
      in
      let resp = post_run ~query:"?timeout_s=0.005" port big in
      checki "timed-out batch is 504" 504 resp.Client.status;
      checkb "reported as timeout" true
        (member_string "status" resp.Client.body = Some "timeout");
      let ok = post_run port (Scenario.to_string spec_small) in
      checki "pool survives the cancel" 200 ok.Client.status)

let test_e2e_stream_and_status () =
  with_server ~workers:1 (fun port ->
      let wire = Scenario.to_string spec_small in
      let ticket = post_run ~query:"?wait=0" port wire in
      checki "async submit accepted" 202 ticket.Client.status;
      let id = ticket_id ticket in
      let stream = get port (Printf.sprintf "/jobs/%d/stream" id) in
      checki "stream responds" 200 stream.Client.status;
      let lines =
        String.split_on_char '\n' (String.trim stream.Client.body)
      in
      checkb "at least one frame plus the status line" true (List.length lines >= 2);
      let last = List.nth lines (List.length lines - 1) in
      checkb "final line settles the job" true
        (member_string "status" last = Some "done");
      List.iteri
        (fun i line ->
          if i < List.length lines - 1 then
            match Json.of_string line with
            | Ok j -> checkb "frame has a round" true (Json.member "round" j <> None)
            | Error e -> Alcotest.fail e)
        lines;
      let status = get port (Printf.sprintf "/jobs/%d" id) in
      checki "status endpoint" 200 status.Client.status;
      checkb "done with result" true
        (member_string "status" status.Client.body = Some "done"))

let test_e2e_stream_readers_share_frames () =
  (* Reading a job's stream does not consume it: two concurrent readers
     and a third after the job settled all get every frame, then the
     final status line. *)
  with_server ~workers:1 (fun port ->
      let ticket =
        post_run ~query:"?wait=0" port (Scenario.to_string spec_small)
      in
      checki "async submit accepted" 202 ticket.Client.status;
      let id = ticket_id ticket in
      let path = Printf.sprintf "/jobs/%d/stream" id in
      let bodies = Array.make 2 "" in
      let readers =
        Array.init 2 (fun i ->
            Thread.create (fun () -> bodies.(i) <- (get port path).Client.body) ())
      in
      (* A reader returns only once the job's stream is closed, which
         happens when the job settles. *)
      Array.iter Thread.join readers;
      let late = (get port path).Client.body in
      let lines = String.split_on_char '\n' (String.trim late) in
      checkb "frames plus the status line" true (List.length lines >= 2);
      checkb "final line settles the job" true
        (member_string "status" (List.nth lines (List.length lines - 1))
        = Some "done");
      checks "concurrent readers agree" bodies.(0) bodies.(1);
      checks "a reader after settle gets the same lines" bodies.(0) late)

(* The frame lines of a job's stream: every line but the final status
   line. *)
let stream_frames port spec =
  let ticket = post_run ~query:"?wait=0" port (Scenario.to_string spec) in
  checki "async submit accepted" 202 ticket.Client.status;
  let body =
    (get port (Printf.sprintf "/jobs/%d/stream" (ticket_id ticket))).Client.body
  in
  match List.rev (String.split_on_char '\n' (String.trim body)) with
  | status :: frames ->
      checkb "final line settles the job" true
        (member_string "status" status = Some "done");
      List.rev frames
  | [] -> Alcotest.fail "empty stream"

let test_e2e_stream_fidelity () =
  (* Frames are rendered when read, so every served line must equal the
     JSONL an in-process run writes as it goes (the [explore run --trace]
     format): a frame that aliased a world's mutable positions would
     show its final state instead. The specs are short enough that the
     1024-frame ring does not wrap. *)
  let tree_params = [ ("depth_hint", Param.Int 8); ("n", Param.Int 120) ] in
  let specs =
    [
      ( "tree",
        Scenario.make ~k:4 ~seed:3 (Scenario.world ~params:tree_params "comb")
      );
      ( "grid",
        Scenario.make ~algo:"bfdn-graph" ~k:5 ~seed:21
          (Scenario.world
             ~params:
               [
                 ("height", Param.Int 6);
                 ("obstacles", Param.Int 2);
                 ("width", Param.Int 8);
               ]
             "grid") );
      ( "async",
        Scenario.make ~algo:"bfdn-async" ~k:4 ~seed:7
          (Scenario.world ~params:tree_params "comb") );
    ]
  in
  with_server ~workers:1 (fun port ->
      List.iter
        (fun (name, spec) ->
          let expected = ref [] in
          let on_round (x : Bfdn_sim.Exec_env.t) =
            expected :=
              Json.to_string
                (Bfdn_sim.Trace.json_of_frame (x.Bfdn_sim.Exec_env.frame ()))
              :: !expected
          in
          ignore (Scenario.run ~on_round spec);
          let expected = List.rev !expected in
          let n = List.length expected in
          checkb (name ^ ": moves and fits the ring") true (n > 1 && n < 1024);
          check_sl (name ^ ": stream = in-process JSONL") expected
            (stream_frames port spec))
        specs;
      (* A batched spec streams one row per lane, in lane order. *)
      let batched = { spec_small with Scenario.batch_seeds = 3 } in
      let rows =
        List.init 3 (fun l ->
            let lane = Scenario.unbatch batched l in
            Json.to_string
              (Json.Obj
                 [
                   ("seed", Json.Int lane.Scenario.seed);
                   ("fingerprint", Json.String (Scenario.fingerprint lane));
                   ("outcome", Scenario.outcome_to_json (Scenario.run lane));
                 ]))
      in
      check_sl "batched: stream = lane rows" rows (stream_frames port batched))

let test_e2e_registry_and_metrics () =
  with_server (fun port ->
      let reg = get port "/registry" in
      checki "registry ok" 200 reg.Client.status;
      checks "registry = Scenario.registry_json"
        (Json.to_string (Scenario.registry_json ()))
        reg.Client.body;
      ignore (post_run port (Scenario.to_string spec_small));
      let m = get port "/metrics" in
      checki "metrics ok" 200 m.Client.status;
      match Json.of_string m.Client.body with
      | Error e -> Alcotest.fail e
      | Ok j ->
          checkb "has metrics and cache sections" true
            (Json.member "metrics" j <> None && Json.member "cache" j <> None))

(* ---- spans, prometheus exposition, postmortems ---- *)

module Prometheus = Bfdn_obs.Prometheus

let contains body sub =
  let n = String.length body and k = String.length sub in
  let rec go i = i + k <= n && (String.sub body i k = sub || go (i + 1)) in
  go 0

(* Poll the status endpoint until the job settles (the async path). *)
let await_done port id =
  let rec go tries =
    if tries = 0 then Alcotest.fail "job did not settle in time";
    let st = get port (Printf.sprintf "/jobs/%d" id) in
    match member_string "status" st.Client.body with
    | Some ("done" | "failed" | "timeout" | "cancelled") -> st
    | _ ->
        Unix.sleepf 0.01;
        go (tries - 1)
  in
  go 1000

let test_e2e_span_tree () =
  (* A deep comb at small k: thousands of rounds, so the runner loop
     dominates the execute span and the phase-sum criterion is sharp. *)
  let spec =
    Scenario.make ~k:4 ~seed:9
      (Scenario.generated ~family:"comb" ~n:4000 ~depth_hint:60)
  in
  with_server ~workers:1 ~cache_cap:0 (fun port ->
      let ticket = post_run ~query:"?wait=0" port (Scenario.to_string spec) in
      checki "async submit accepted" 202 ticket.Client.status;
      let trace =
        match member_string "trace" ticket.Client.body with
        | Some t -> t
        | None -> Alcotest.fail "ticket carries no trace id"
      in
      checkb "trace id non-empty" true (String.length trace > 0);
      let id = ticket_id ticket in
      ignore (await_done port id);
      let resp = get port (Printf.sprintf "/jobs/%d/spans" id) in
      checki "spans endpoint" 200 resp.Client.status;
      let tree =
        match Json.of_string resp.Client.body with
        | Ok j -> j
        | Error e -> Alcotest.fail e
      in
      checkb "tree carries the ticket's trace id" true
        (Json.member "trace" tree = Some (Json.String trace));
      let name_of j =
        match Json.member "name" j with Some (Json.String s) -> s | _ -> ""
      in
      let children j =
        match Json.member "children" j with Some (Json.List l) -> l | _ -> []
      in
      let dur j =
        match Json.member "dur_ns" j with Some (Json.Int d) -> d | _ -> 0
      in
      let roots =
        match Json.member "spans" tree with Some (Json.List l) -> l | _ -> []
      in
      checki "one root span" 1 (List.length roots);
      let root = List.hd roots in
      checks "root is the request" "request" (name_of root);
      let kid name = List.find_opt (fun c -> name_of c = name) (children root) in
      checkb "edge spans present" true
        (kid "parse" <> None && kid "cache_lookup" <> None
        && kid "admission" <> None && kid "queue" <> None);
      let exe =
        match kid "execute" with
        | Some e -> e
        | None -> Alcotest.fail "no execute span"
      in
      let phase_names =
        [ "phase:select"; "phase:apply"; "phase:finished_check" ]
      in
      let phases =
        List.filter (fun c -> List.mem (name_of c) phase_names) (children exe)
      in
      checki "three phase spans" 3 (List.length phases);
      let run =
        match
          List.find_opt (fun c -> name_of c = "run") (children exe)
        with
        | Some r -> r
        | None -> Alcotest.fail "no run span under execute"
      in
      (* The three accumulated phases cover the whole runner loop: their
         sum must land within 5% of the run span's wall time (the
         execute span additionally carries world/env/algorithm setup). *)
      let phase_sum = List.fold_left (fun a p -> a + dur p) 0 phases in
      let run_wall = dur run in
      checkb "phases closed" true
        (List.for_all (fun p -> Json.member "open" p = None) phases);
      checkb
        (Printf.sprintf "phase sum %d within 5%% of run wall %d" phase_sum
           run_wall)
        true
        (run_wall > 0
        && Float.abs (float_of_int (phase_sum - run_wall))
           <= 0.05 *. float_of_int run_wall);
      checkb "execute wall covers the loop" true (dur exe >= run_wall))

let test_e2e_prometheus_metrics () =
  with_server (fun port ->
      ignore (post_run port (Scenario.to_string spec_small));
      let m = get port "/metrics?format=prometheus" in
      checki "prometheus format ok" 200 m.Client.status;
      (match Client.response_header "Content-Type" m with
      | Some ct -> checks "exposition content type" Prometheus.content_type ct
      | None -> Alcotest.fail "no content type");
      let body = m.Client.body in
      (match Prometheus.validate body with
      | Ok () -> ()
      | Error e -> Alcotest.failf "exposition does not validate: %s" e);
      checkb "request latency histogram" true
        (contains body "# TYPE bfdn_request_s histogram"
        && contains body "bfdn_request_s_bucket{le=\"+Inf\"}");
      checkb "quantile estimate gauges" true (contains body "bfdn_request_s_p99");
      checkb "simulation counters merged" true (contains body "bfdn_rounds");
      checkb "gc registry merged" true (contains body "bfdn_gc_");
      checkb "service stats folded in" true
        (contains body "bfdn_result_cache_hits"
        && contains body "bfdn_admission_inflight"
        && contains body "bfdn_pool_workers"))

let pm_seq = ref 0

let with_postmortem_dir f =
  incr pm_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bfdn-pm-%d-%d" (Unix.getpid ()) !pm_seq)
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_e2e_timeout_postmortem () =
  with_postmortem_dir (fun dir ->
      with_server ~workers:1 ~cache_cap:0 ~postmortem_dir:dir (fun port ->
          let big =
            Scenario.make ~k:4 ~seed:5
              (Scenario.generated ~family:"random" ~n:50000 ~depth_hint:60)
          in
          let resp =
            post_run ~query:"?timeout_s=0.005" port (Scenario.to_string big)
          in
          checki "timed-out job is 504" 504 resp.Client.status;
          let path =
            match member_string "postmortem" resp.Client.body with
            | Some p -> p
            | None -> Alcotest.fail "504 body lacks a postmortem link"
          in
          checkb "bundle exists by response time" true (Sys.file_exists path);
          (match Json.of_string (read_file path) with
          | Error e -> Alcotest.fail e
          | Ok j ->
              checkb "reason is timeout" true
                (Json.member "reason" j = Some (Json.String "timeout"));
              checkb "spec embedded and re-parseable" true
                (match Json.member "spec" j with
                | Some spec_j -> (
                    match Scenario.of_json spec_j with
                    | Ok round_tripped ->
                        Scenario.fingerprint round_tripped
                        = Scenario.fingerprint big
                    | Error _ -> false)
                | None -> false);
              checkb "fingerprint recorded" true
                (Json.member "fingerprint" j
                = Some (Json.String (Scenario.fingerprint big)));
              checkb "seed recorded" true
                (Json.member "seed" j = Some (Json.Int 5));
              checkb "metrics snapshot present" true
                (match Json.member "metrics" j with
                | Some (Json.Obj _) -> true
                | _ -> false);
              (* One frame per executed round: the bundle keeps the
                 newest 64 and counts the rest as dropped. *)
              (match
                 ( Json.member "frames" j,
                   Json.member "frames_dropped" j,
                   Option.bind (Json.member "metrics" j) (Json.member "rounds")
                 )
               with
              | ( Some (Json.List l),
                  Some (Json.Int dropped),
                  Some (Json.Int rounds) ) ->
                  checkb "trace frames present" true (l <> []);
                  checkb "at most 64 frames" true (List.length l <= 64);
                  checki "frames_dropped = pushed - retained"
                    (rounds - List.length l) dropped
              | _ -> Alcotest.fail "bundle lacks frames accounting");
              checkb "span tree present" true
                (match Json.member "spans" j with
                | Some (Json.Obj _) -> true
                | _ -> false));
          (* the job status endpoint links the bundle too *)
          let id =
            match Json.of_string resp.Client.body with
            | Ok j -> (
                match Json.member "id" j with
                | Some (Json.Int id) -> id
                | _ -> Alcotest.fail "no id in 504 body")
            | Error e -> Alcotest.fail e
          in
          let st = get port (Printf.sprintf "/jobs/%d" id) in
          checkb "status links postmortem" true
            (member_string "postmortem" st.Client.body = Some path);
          (* Bundles are renamed into place: no temporary file is left
             behind, and every bundle in the directory parses. *)
          Array.iter
            (fun f ->
              checkb ("no temporary file left: " ^ f) false
                (Filename.check_suffix f ".tmp");
              if String.starts_with ~prefix:"job-" f
                 && Filename.check_suffix f ".json"
              then
                match Json.of_string (read_file (Filename.concat dir f)) with
                | Ok _ -> ()
                | Error e -> Alcotest.fail (f ^ ": " ^ e))
            (Sys.readdir dir)))

let test_e2e_tracing_disabled () =
  (* trace = false: requests still work, the spans endpoint degrades to
     an empty tree rather than an error. *)
  let config =
    {
      Server.default_config with
      Server.port = 0;
      workers = 1;
      cache_cap = 0;
      trace = false;
    }
  in
  let srv = Server.create config in
  let th = Thread.create Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th)
    (fun () ->
      let port = Server.port srv in
      let ticket =
        post_run ~query:"?wait=0" port (Scenario.to_string spec_small)
      in
      checki "async submit accepted" 202 ticket.Client.status;
      let id = ticket_id ticket in
      ignore (await_done port id);
      let resp = get port (Printf.sprintf "/jobs/%d/spans" id) in
      checki "spans endpoint still answers" 200 resp.Client.status;
      match Json.of_string resp.Client.body with
      | Ok j ->
          checkb "empty span tree" true
            (Json.member "spans" j = Some (Json.List []))
      | Error e -> Alcotest.fail e)

(* One admission ticket for a batched spec fans out to S cached lane
   fingerprints plus the batch body under its own fingerprint. *)
let test_e2e_batched_fanout () =
  with_server (fun port ->
      let batched = { spec_small with Scenario.batch_seeds = 4 } in
      let resp = post_run port (Scenario.to_string batched) in
      checki "batched submission runs" 200 resp.Client.status;
      checkb "marked miss" true
        (member_string "cache" resp.Client.body = Some "miss");
      (match Json.of_string resp.Client.body with
      | Ok j -> (
          match Json.member "result" j with
          | Some r -> (
              match Json.member "outcomes" r with
              | Some (Json.List lanes) ->
                  checki "one row per lane" 4 (List.length lanes);
                  List.iteri
                    (fun l row ->
                      let expected =
                        Json.to_string
                          (Scenario.outcome_to_json
                             (Scenario.run (Scenario.unbatch batched l)))
                      in
                      match Json.member "outcome" row with
                      | Some o ->
                          checks
                            (Printf.sprintf "lane %d = sequential run" l)
                            expected (Json.to_string o)
                      | None -> Alcotest.fail "lane row missing outcome")
                    lanes
              | _ -> Alcotest.fail "no outcomes list in batch result")
          | None -> Alcotest.fail "no result member")
      | Error e -> Alcotest.fail e);
      (* every lane's plain single-seed spec is now a cache hit *)
      for l = 0 to 3 do
        let lane_wire = Scenario.to_string (Scenario.unbatch batched l) in
        checkb
          (Printf.sprintf "lane %d spec hits the cache" l)
          true
          (member_string "cache" (post_run port lane_wire).Client.body
          = Some "hit")
      done;
      checkb "batch resubmission hits" true
        (member_string "cache"
           (post_run port (Scenario.to_string batched)).Client.body
        = Some "hit"))

(* A settled job keeps its whole stream in memory (up to 256 settled
   jobs are retained), so each retained round must stay a typed frame:
   k + 8 words, plus 3 for its ring slot. Retained as JSON trees, the
   same frames cost 77 words each. *)
let test_stream_retained_words () =
  let k = 8 in
  let spec =
    Scenario.make ~k ~seed:3
      (Scenario.generated ~family:"comb" ~n:4000 ~depth_hint:40)
  in
  let q = Q.create () in
  let job = Result.get_ok (Q.admit q ~timeout_s:60. ~fingerprint:"fp" spec) in
  let on_round (x : Bfdn_sim.Exec_env.t) =
    Bfdn_obs.Sink.Ring.push job.Q.stream
      (Q.Frame (x.Bfdn_sim.Exec_env.frame ()))
  in
  ignore (Scenario.run ~on_round spec);
  Q.settle q job (Q.Done "{}");
  let held = Bfdn_obs.Sink.Ring.length job.Q.stream in
  checki "the ring is full" 1024 held;
  let per_frame =
    float_of_int (Obj.reachable_words (Obj.repr job.Q.stream))
    /. float_of_int held
  in
  if per_frame > float_of_int (k + 12) then
    Alcotest.failf "%.1f words per retained frame at k=%d (limit %d)"
      per_frame k (k + 12)

(* Kept apart from [suite] so the fast tier can run it. *)
let memory_suite =
  ( "serve-mem",
    [
      Alcotest.test_case "stream retains typed frames" `Quick
        test_stream_retained_words;
    ] )

let suite =
  ( "serve",
    [
      Alcotest.test_case "fingerprint collision-free over golden suite" `Quick
        test_fingerprint_collision_free;
      Alcotest.test_case "fingerprint ignores the metrics flag" `Quick
        test_fingerprint_ignores_metrics_flag;
      Alcotest.test_case "cache LRU eviction order" `Quick test_cache_lru_eviction;
      Alcotest.test_case "cache cap 0 disables" `Quick test_cache_zero_cap_disabled;
      Alcotest.test_case "cache hit is byte-identical" `Quick
        test_cache_hit_is_byte_identical;
      Alcotest.test_case "cache concurrent access" `Quick
        test_cache_concurrent_access;
      Alcotest.test_case "http request parsing" `Quick test_http_parse_request;
      Alcotest.test_case "http rejects malformed framing" `Quick
        test_http_parse_rejects;
      Alcotest.test_case "router dispatch" `Quick test_router_dispatch;
      Alcotest.test_case "json errors carry positions" `Quick
        test_json_position_errors;
      Alcotest.test_case "admission bound and drain" `Quick
        test_admission_bound_and_drain;
      Alcotest.test_case "e2e determinism and cache hit" `Quick
        test_e2e_determinism_and_cache;
      Alcotest.test_case "e2e concurrent clients agree" `Quick
        test_e2e_concurrent_clients;
      Alcotest.test_case "e2e malformed spec is 400" `Quick test_e2e_bad_spec_400;
      Alcotest.test_case "e2e full queue is 429" `Quick test_e2e_backpressure_429;
      Alcotest.test_case "e2e timeout cancels cleanly" `Quick
        test_e2e_timeout_cancels_cleanly;
      Alcotest.test_case "e2e batched timeout cancels cleanly" `Quick
        test_e2e_batched_timeout;
      Alcotest.test_case "e2e stream and job status" `Quick
        test_e2e_stream_and_status;
      Alcotest.test_case "e2e stream readers share frames" `Quick
        test_e2e_stream_readers_share_frames;
      Alcotest.test_case "e2e registry and metrics endpoints" `Quick
        test_e2e_registry_and_metrics;
      Alcotest.test_case "e2e span tree and phase sums" `Quick
        test_e2e_span_tree;
      Alcotest.test_case "e2e prometheus exposition" `Quick
        test_e2e_prometheus_metrics;
      Alcotest.test_case "e2e timeout writes a postmortem" `Quick
        test_e2e_timeout_postmortem;
      Alcotest.test_case "e2e tracing disabled degrades cleanly" `Quick
        test_e2e_tracing_disabled;
      Alcotest.test_case "e2e batched spec fans out to lane cache" `Quick
        test_e2e_batched_fanout;
      Alcotest.test_case "e2e stream equals the in-process trace" `Quick
        test_e2e_stream_fidelity;
    ] )
