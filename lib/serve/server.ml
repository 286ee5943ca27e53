module Json = Bfdn_obs.Json
module Metrics = Bfdn_obs.Metrics
module Probe = Bfdn_obs.Probe
module Sink = Bfdn_obs.Sink
module Ring = Sink.Ring
module Span = Bfdn_obs.Span
module Log = Bfdn_obs.Log
module Prometheus = Bfdn_obs.Prometheus
module Clock = Bfdn_util.Clock
module Pool = Bfdn_engine.Pool
module Seed_batch = Bfdn_engine.Seed_batch
module Scenario = Bfdn_scenario.Scenario
module Trace = Bfdn_sim.Trace
module Q = Queue_admission

type config = {
  host : string;
  port : int;
  workers : int;
  queue_cap : int;
  cache_cap : int;
  timeout_s : float;
  log : Log.t;
  trace : bool;
  span_sink : (Json.t -> unit) option;
  postmortem_dir : string option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    workers = Domain.recommended_domain_count ();
    queue_cap = 64;
    cache_cap = 256;
    timeout_s = 60.;
    log = Log.ignore_log;
    trace = true;
    span_sink = None;
    postmortem_dir = None;
  }

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  adm : Q.t;
  cache : Result_cache.t;
  pool : Pool.t;
  worker_regs : Metrics.t array;
  (* Everything outside the pool's per-worker registries lives in one
     registry behind one mutex: the connection threads' HTTP counters,
     the per-job simulation registries (merged by the worker domain that
     ran the job) and the runtime GC pauses (ticked once per finished
     request). /metrics folds it while requests are in flight. *)
  side_reg : Metrics.t;
  side_m : Mutex.t;
  gc_probe : Bfdn_obs.Gc_probe.t;
  trace_ctr : int Atomic.t;
  stopping : bool Atomic.t;
  conn_m : Mutex.t;
  conn_done : Condition.t;
  mutable open_conns : int;
}

let create config =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  let addr =
    Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port)
  in
  Unix.bind fd addr;
  Unix.listen fd 128;
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let workers = max 1 config.workers in
  let worker_regs = Array.init workers (fun _ -> Metrics.create ()) in
  let side_reg = Metrics.create () in
  (* Registered eagerly so a /metrics scrape racing the very first
     request still sees the latency family. *)
  ignore (Metrics.histogram side_reg "request_s");
  {
    config;
    listen_fd = fd;
    bound_port;
    adm = Q.create ~cap:config.queue_cap ();
    cache = Result_cache.create ~cap:config.cache_cap;
    pool = Pool.create ~probe:(Probe.pool_probe worker_regs) ~workers ();
    worker_regs;
    side_reg;
    side_m = Mutex.create ();
    gc_probe = Bfdn_obs.Gc_probe.create side_reg;
    trace_ctr = Atomic.make 0;
    stopping = Atomic.make false;
    conn_m = Mutex.create ();
    conn_done = Condition.create ();
    open_conns = 0;
  }

let port t = t.bound_port

let with_side t f =
  Mutex.lock t.side_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.side_m) f

let count t name =
  with_side t (fun () -> Metrics.incr (Metrics.counter t.side_reg name))

(* Correlation id minted at the HTTP edge: a per-process sequence plus
   monotonic-clock bits so ids from server restarts rarely collide in a
   shared log. *)
let fresh_trace t =
  Printf.sprintf "t%06x-%04x"
    (Clock.now_ns () lsr 10 land 0xffffff)
    (Atomic.fetch_and_add t.trace_ctr 1 land 0xffff)

let span_recorder t ~trace =
  if t.config.trace then
    Span.create ?sink:t.config.span_sink ~trace_id:trace ()
  else Span.disabled

(* ---- response helpers ---- *)

let respond_json fd ~status ?headers j =
  Http.write_response fd ~status ?headers (Json.to_string j)

let error_body msg = Json.Obj [ ("error", Json.String msg) ]

(* A stream element as its readers see it: frames are kept typed in the
   ring and rendered here, when read. *)
let event_json = function
  | Q.Frame f -> Trace.json_of_frame f
  | Q.Row row -> row

(* ---- postmortem bundles ---- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Frames a postmortem bundle keeps: the newest of the job's stream. *)
let postmortem_frames = 64

(* Written by the executing worker after the run ends but before the job
   settles, so by the time a waiter sees the terminal state the bundle
   path is already linked from the job. *)
let write_postmortem t (job : Q.job) reg ~reason ~state_name =
  match t.config.postmortem_dir with
  | None -> ()
  | Some dir -> (
      let path =
        Filename.concat dir
          (Printf.sprintf "job-%d-%s.json" job.Q.id job.Q.fingerprint)
      in
      let frames = Ring.last job.Q.stream postmortem_frames in
      let bundle =
        Json.Obj
          [
            ("schema_version", Json.Int 1);
            ("trace", Json.String job.Q.trace);
            ("job_id", Json.Int job.Q.id);
            ("reason", Json.String reason);
            ("state", Json.String state_name);
            ("fingerprint", Json.String job.Q.fingerprint);
            ("seed", Json.Int job.Q.spec.Scenario.seed);
            ("spec", Scenario.to_json job.Q.spec);
            ("metrics", Metrics.to_json reg);
            ("frames", Json.List (List.map event_json frames));
            ( "frames_dropped",
              Json.Int (Ring.pushed job.Q.stream - List.length frames) );
            ("spans", Span.tree_json job.Q.span);
          ]
      in
      try
        mkdir_p dir;
        Bfdn_util.Atomic_file.write ~path (Json.to_string bundle ^ "\n");
        job.Q.postmortem <- Some path;
        Log.warn t.config.log ~trace:job.Q.trace
          ~attrs:[ ("path", Json.String path); ("reason", Json.String reason) ]
          "postmortem bundle written"
      with Sys_error msg | Unix.Unix_error (_, msg, _) ->
        Log.error t.config.log ~trace:job.Q.trace
          ~attrs:[ ("path", Json.String path); ("detail", Json.String msg) ]
          "postmortem bundle failed")

(* ---- job execution (runs on a pool worker domain) ---- *)

let exec t (job : Q.job) =
  if Q.mark_running t.adm job then begin
    Span.finish job.Q.span job.Q.queue_span;
    let reg = Metrics.create () in
    let probe, finish_exe =
      Probe.traced job.Q.span ~parent:job.Q.root_span reg
        (Probe.of_metrics reg)
    in
    let deadline =
      Clock.now_ns () + int_of_float (job.Q.timeout_s *. 1e9)
    in
    (* Checked after every round: raising aborts the run. *)
    let check_deadline (_ : Bfdn_sim.Exec_env.t) =
      if Clock.now_ns () > deadline then begin
        job.Q.timed_out <- true;
        Pool.cancel job.Q.token
      end;
      Pool.check job.Q.token
    in
    let on_round (exec : Bfdn_sim.Exec_env.t) =
      Ring.push job.Q.stream (Q.Frame (exec.Bfdn_sim.Exec_env.frame ()));
      check_deadline exec
    in
    (* Merge the job's registry before settling: the waiter wakes at
       settle and may scrape /metrics immediately. *)
    let settle_with st =
      with_side t (fun () -> Metrics.merge_into ~into:t.side_reg reg);
      Q.settle t.adm job st
    in
    (* Batched specs fan out through the batch engine: one admission
       ticket, one execute span, S lanes. Each lane's outcome
       is streamed as it is known and cached under the lane's own
       (unbatched) fingerprint, so a later plain request for any single
       seed is a cache hit; the combined body is cached under the batch
       fingerprint by the common path below. *)
    let run_batched () =
      let spec = job.Q.spec in
      let report = Seed_batch.run ~probe ~on_round:check_deadline spec in
      let lanes =
        Array.mapi
          (fun l outcome ->
            let lane_fp = Scenario.fingerprint (Scenario.unbatch spec l) in
            let oj = Scenario.outcome_to_json outcome in
            Result_cache.put t.cache lane_fp (Json.to_string oj);
            let row =
              [
                ("seed", Json.Int (spec.Scenario.seed + l));
                ("fingerprint", Json.String lane_fp);
                ("outcome", oj);
              ]
            in
            Ring.push job.Q.stream (Q.Row (Sink.record Sink.Row row));
            Json.Obj row)
          report.Seed_batch.outcomes
      in
      Json.to_string
        (Json.Obj
           [
             ("seeds", Json.Int spec.Scenario.batch_seeds);
             ("shared_world", Json.Bool report.Seed_batch.shared_world);
             ("collapsed", Json.Bool report.Seed_batch.collapsed);
             ("outcomes", Json.List (Array.to_list lanes));
           ])
    in
    let execute () =
      if job.Q.spec.Scenario.batch_seeds > 1 then run_batched ()
      else
        Json.to_string
          (Scenario.outcome_to_json (Scenario.run ~probe ~on_round job.Q.spec))
    in
    match execute () with
    | body ->
        finish_exe ~state:"done";
        Result_cache.put t.cache job.Q.fingerprint body;
        (* Fault-tolerant runs that lost robots finish, but are exactly
           the runs an operator wants a bundle for. *)
        let lost =
          Option.fold ~none:0 ~some:Metrics.value
            (Metrics.find_counter reg "robots_lost")
        in
        if lost > 0 then
          write_postmortem t job reg
            ~reason:(Printf.sprintf "robots_lost=%d" lost)
            ~state_name:"done";
        Log.info t.config.log ~trace:job.Q.trace
          ~attrs:[ ("job", Json.Int job.Q.id); ("state", Json.String "done") ]
          "job settled";
        settle_with (Q.Done body)
    | exception Pool.Cancelled ->
        let st = if job.Q.timed_out then Q.Timeout else Q.Cancelled in
        let name = Q.state_name st in
        finish_exe ~state:name;
        if job.Q.timed_out then
          write_postmortem t job reg ~reason:"timeout" ~state_name:name;
        Log.warn t.config.log ~trace:job.Q.trace
          ~attrs:[ ("job", Json.Int job.Q.id); ("state", Json.String name) ]
          "job settled";
        settle_with st
    | exception e ->
        let msg = Printexc.to_string e in
        finish_exe ~state:"failed";
        write_postmortem t job reg ~reason:("exception: " ^ msg)
          ~state_name:"failed";
        Log.error t.config.log ~trace:job.Q.trace
          ~attrs:[ ("job", Json.Int job.Q.id); ("detail", Json.String msg) ]
          "job failed";
        settle_with (Q.Failed msg)
  end

(* ---- handlers ---- *)

(* The hit and miss response bodies embed the same pre-rendered result
   string, so they are byte-identical apart from the cache marker. *)
let result_body ~cache ~fingerprint body =
  Printf.sprintf "{\"cache\":\"%s\",\"fingerprint\":\"%s\",\"result\":%s}"
    cache fingerprint body

(* A job's status members: the body of a ticket or of /jobs/:id, and
   the closing line of its stream. *)
let job_status (job : Q.job) st =
  let base =
    [
      ("id", Json.Int job.Q.id);
      ("status", Json.String (Q.state_name st));
      ("fingerprint", Json.String job.Q.fingerprint);
      ("trace", Json.String job.Q.trace);
    ]
  in
  let postmortem =
    match job.Q.postmortem with
    | Some path -> [ ("postmortem", Json.String path) ]
    | None -> []
  in
  match st with
  | Q.Failed msg -> base @ [ ("error", Json.String msg) ] @ postmortem
  | _ -> base @ postmortem

let job_status_json job st = Json.Obj (job_status job st)

let handle_run t req ~trace fd =
  let sp = span_recorder t ~trace in
  let root = Span.start sp "request" in
  let parse_span = Span.start ~parent:root sp "parse" in
  let parsed =
    match Json.of_string_pos req.Http.body with
    | Error e -> Error (`Json e)
    | Ok j -> (
        match Scenario.of_json j with
        | Error msg -> Error (`Spec msg)
        | Ok spec -> (
            match Scenario.validate spec with
            | Error msg -> Error (`Spec msg)
            | Ok () -> Ok spec))
  in
  Span.finish
    ~attrs:[ ("ok", Json.Bool (Result.is_ok parsed)) ]
    sp parse_span;
  (match parsed with
  | Error (`Json e) ->
      count t "bad_requests";
      Log.debug t.config.log ~trace
        ~attrs:[ ("detail", Json.String e.Json.msg) ]
        "spec rejected: invalid JSON";
      respond_json fd ~status:400
        (Json.Obj
           [
             ("error", Json.String "spec is not valid JSON");
             ("detail", Json.String e.Json.msg);
             ("line", Json.Int e.Json.line);
             ("col", Json.Int e.Json.col);
             ("offset", Json.Int e.Json.offset);
           ])
  | Error (`Spec msg) ->
      count t "bad_requests";
      Log.debug t.config.log ~trace
        ~attrs:[ ("detail", Json.String msg) ]
        "spec rejected";
      respond_json fd ~status:400 (error_body msg)
  | Ok spec -> (
      let fingerprint = Scenario.fingerprint spec in
      let cache_span = Span.start ~parent:root sp "cache_lookup" in
      let cached = Result_cache.find t.cache fingerprint in
      Span.finish
        ~attrs:[ ("hit", Json.Bool (cached <> None)) ]
        sp cache_span;
      match cached with
      | Some body ->
          count t "cache_hits";
          Http.write_response fd ~status:200
            (result_body ~cache:"hit" ~fingerprint body)
      | None -> (
          count t "cache_misses";
          let timeout_s =
            match Http.query_param "timeout_s" req with
            | Some v -> (
                match float_of_string_opt v with
                | Some f when f > 0. -> f
                | _ -> t.config.timeout_s)
            | None -> t.config.timeout_s
          in
          let admit_span = Span.start ~parent:root sp "admission" in
          let admitted =
            Q.admit ~trace ~span:sp ~parent:root t.adm ~timeout_s ~fingerprint
              spec
          in
          Span.finish
            ~attrs:
              [
                ( "outcome",
                  Json.String
                    (match admitted with
                    | Ok _ -> "admitted"
                    | Error `Full -> "full"
                    | Error `Draining -> "draining") );
              ]
            sp admit_span;
          match admitted with
          | Error `Full ->
              count t "rejected_busy";
              respond_json fd ~status:429
                ~headers:
                  [
                    ( "Retry-After",
                      string_of_int (Q.retry_after_s t.adm) );
                  ]
                (Json.Obj
                   [
                     ("error", Json.String "job queue is full");
                     ("inflight", Json.Int (Q.inflight t.adm));
                     ("cap", Json.Int (Q.cap t.adm));
                   ])
          | Error `Draining ->
              respond_json fd ~status:503
                (error_body "server is draining")
          | Ok job -> (
              count t "jobs_admitted";
              Log.debug t.config.log ~trace
                ~attrs:
                  [
                    ("job", Json.Int job.Q.id);
                    ("fingerprint", Json.String fingerprint);
                  ]
                "job admitted";
              Pool.submit ~token:job.Q.token t.pool (fun () -> exec t job);
              let async =
                match Http.query_param "wait" req with
                | Some ("0" | "false" | "no") -> true
                | _ -> false
              in
              if async then
                respond_json fd ~status:202 (job_status_json job Q.Queued)
              else
                match Q.await t.adm job with
                | Q.Done body ->
                    Http.write_response fd ~status:200
                      (result_body ~cache:"miss" ~fingerprint body)
                | Q.Timeout ->
                    count t "timeouts";
                    respond_json fd ~status:504
                      (job_status_json job Q.Timeout)
                | Q.Cancelled ->
                    respond_json fd ~status:503
                      (job_status_json job Q.Cancelled)
                | Q.Failed msg ->
                    respond_json fd ~status:500
                      (job_status_json job (Q.Failed msg))
                | (Q.Queued | Q.Running) as st ->
                    respond_json fd ~status:500 (job_status_json job st)))));
  Span.finish sp root

let with_job t params fd k =
  match List.assoc_opt "id" params with
  | None -> respond_json fd ~status:400 (error_body "missing job id")
  | Some raw -> (
      match int_of_string_opt raw with
      | None ->
          respond_json fd ~status:400
            (error_body (Printf.sprintf "malformed job id %S" raw))
      | Some id -> (
          match Q.find t.adm id with
          | None ->
              respond_json fd ~status:404
                (error_body (Printf.sprintf "no such job %d" id))
          | Some job -> k job))

let handle_job_status t _req params ~trace:_ fd =
  with_job t params fd (fun job ->
      match Q.state t.adm job with
      | Q.Done body ->
          let postmortem =
            match job.Q.postmortem with
            | Some path -> Printf.sprintf ",\"postmortem\":\"%s\"" (Json.escape path)
            | None -> ""
          in
          Http.write_response fd ~status:200
            (Printf.sprintf
               "{\"id\":%d,\"status\":\"done\",\"fingerprint\":\"%s\",\"trace\":\"%s\"%s,\"result\":%s}"
               job.Q.id job.Q.fingerprint (Json.escape job.Q.trace) postmortem
               body)
      | st -> respond_json fd ~status:200 (job_status_json job st))

let handle_job_spans t _req params ~trace:_ fd =
  with_job t params fd (fun job ->
      respond_json fd ~status:200 (Span.tree_json job.Q.span))

let handle_job_stream t _req params ~trace:_ fd =
  with_job t params fd (fun job ->
      Http.start_chunked fd ~status:200 ();
      let send j = Http.send_chunk fd (Json.to_string j ^ "\n") in
      let cursor = Ring.cursor job.Q.stream in
      let rec pump () =
        match Ring.next job.Q.stream cursor with
        | Some ev ->
            send (event_json ev);
            pump ()
        | None -> ()
      in
      pump ();
      send (Sink.record Sink.Status (job_status job (Q.state t.adm job)));
      Http.finish_chunked fd)

let merged_metrics t =
  let merged = Metrics.create () in
  with_side t (fun () ->
      Bfdn_obs.Gc_probe.snapshot t.gc_probe;
      Metrics.merge_into ~into:merged t.side_reg);
  Array.iter (fun reg -> Metrics.merge_into ~into:merged reg) t.worker_regs;
  merged

let handle_metrics t req _params ~trace:_ fd =
  let stats = Result_cache.stats t.cache in
  match Http.query_param "format" req with
  | Some "prometheus" ->
      (* Fold the service-level statistics into the merged registry as
         ordinary metrics (distinct names: the HTTP counter registry
         already owns "cache_hits" for request accounting), so one
         exposition document carries every registry. *)
      let merged = merged_metrics t in
      let c name v = Metrics.add (Metrics.counter merged name) v in
      let g name v = Metrics.set (Metrics.gauge merged name) v in
      c "result_cache_hits" stats.Result_cache.hits;
      c "result_cache_misses" stats.Result_cache.misses;
      c "result_cache_evictions" stats.Result_cache.evictions;
      g "result_cache_size" (float_of_int stats.Result_cache.size);
      g "result_cache_cap" (float_of_int (Result_cache.cap t.cache));
      c "admission_admitted" (Q.jobs_admitted t.adm);
      g "admission_inflight" (float_of_int (Q.inflight t.adm));
      g "admission_queue_cap" (float_of_int (Q.cap t.adm));
      g "pool_workers" (float_of_int (Pool.workers t.pool));
      Http.write_response fd ~status:200 ~content_type:Prometheus.content_type
        (Prometheus.render merged)
  | _ ->
      respond_json fd ~status:200
        (Json.Obj
           [
             ("metrics", Metrics.to_json (merged_metrics t));
             ( "cache",
               Json.Obj
                 [
                   ("hits", Json.Int stats.Result_cache.hits);
                   ("misses", Json.Int stats.Result_cache.misses);
                   ("evictions", Json.Int stats.Result_cache.evictions);
                   ("size", Json.Int stats.Result_cache.size);
                   ("cap", Json.Int (Result_cache.cap t.cache));
                 ] );
             ( "jobs",
               Json.Obj
                 [
                   ("admitted", Json.Int (Q.jobs_admitted t.adm));
                   ("inflight", Json.Int (Q.inflight t.adm));
                   ("queue_cap", Json.Int (Q.cap t.adm));
                 ] );
             ("workers", Json.Int (Pool.workers t.pool));
           ])

let handle_registry _t _req _params ~trace:_ fd =
  respond_json fd ~status:200 (Scenario.registry_json ())

let handle_health t _req _params ~trace:_ fd =
  respond_json fd ~status:200
    (Json.Obj
       [
         ("status", Json.String "ok");
         ("inflight", Json.Int (Q.inflight t.adm));
         ("draining", Json.Bool (Q.draining t.adm));
       ])

let routes t =
  [
    Router.route ~meth:"POST" "/run" (fun req _params ~trace fd ->
        handle_run t req ~trace fd);
    Router.route ~meth:"GET" "/jobs/:id" (handle_job_status t);
    Router.route ~meth:"GET" "/jobs/:id/spans" (handle_job_spans t);
    Router.route ~meth:"GET" "/jobs/:id/stream" (handle_job_stream t);
    Router.route ~meth:"GET" "/metrics" (handle_metrics t);
    Router.route ~meth:"GET" "/registry" (handle_registry t);
    Router.route ~meth:"GET" "/healthz" (handle_health t);
  ]

(* ---- connection loop ---- *)

let handle_connection t routes fd =
  let t0 = Clock.now_ns () in
  let trace = fresh_trace t in
  (try
     match Http.read_request (Http.reader fd) with
     | Error msg ->
         count t "bad_requests";
         respond_json fd ~status:400 (error_body msg)
     | Ok req -> (
         count t "requests";
         Log.debug t.config.log ~trace
           ~attrs:
             [
               ("method", Json.String req.Http.meth);
               ("target", Json.String req.Http.target);
             ]
           "request";
         match
           Router.dispatch routes ~meth:req.Http.meth ~path:req.Http.path
         with
         | Router.Match (handler, params) -> handler req params ~trace fd
         | Router.Method_not_allowed allowed ->
             respond_json fd ~status:405
               ~headers:[ ("Allow", String.concat ", " allowed) ]
               (error_body "method not allowed")
         | Router.Not_found ->
             respond_json fd ~status:404 (error_body "not found"))
   with
  | Unix.Unix_error _ -> () (* client went away mid-response *)
  | e -> (
      Log.error t.config.log ~trace
        ~attrs:[ ("detail", Json.String (Printexc.to_string e)) ]
        "handler raised";
      try respond_json fd ~status:500 (error_body (Printexc.to_string e))
      with _ -> ()));
  with_side t (fun () ->
      Metrics.observe
        (Metrics.histogram t.side_reg "request_s")
        (float_of_int (Clock.now_ns () - t0) *. 1e-9);
      Bfdn_obs.Gc_probe.tick t.gc_probe);
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.lock t.conn_m;
  t.open_conns <- t.open_conns - 1;
  if t.open_conns = 0 then Condition.broadcast t.conn_done;
  Mutex.unlock t.conn_m

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Log.info t.config.log "stop requested";
    (* Wake a blocked [accept] — closing alone does not, on Linux. *)
    try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
    with Unix.Unix_error _ -> ()
  end

let run t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let routes = routes t in
  Log.info t.config.log
    ~attrs:
      [
        ("host", Json.String t.config.host);
        ("port", Json.Int t.bound_port);
        ("workers", Json.Int (Pool.workers t.pool));
        ("queue_cap", Json.Int t.config.queue_cap);
        ("cache_cap", Json.Int t.config.cache_cap);
      ]
    "listening";
  let rec loop () =
    if not (Atomic.get t.stopping) then
      match Unix.accept t.listen_fd with
      | fd, _ ->
          Mutex.lock t.conn_m;
          t.open_conns <- t.open_conns + 1;
          Mutex.unlock t.conn_m;
          ignore (Thread.create (fun () -> handle_connection t routes fd) ());
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error
          ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _) ->
          if not (Atomic.get t.stopping) then loop ()
  in
  loop ();
  Log.info t.config.log "draining";
  Q.drain t.adm;
  Q.await_idle t.adm;
  Mutex.lock t.conn_m;
  while t.open_conns > 0 do
    Condition.wait t.conn_done t.conn_m
  done;
  Mutex.unlock t.conn_m;
  Pool.shutdown t.pool;
  Bfdn_obs.Gc_probe.dispose t.gc_probe;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Log.info t.config.log "drained"
