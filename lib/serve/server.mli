(** The scenario-execution service.

    A long-running HTTP/1.1 front end over the existing engine: specs
    come in over [POST /run], are validated against the registries,
    deduplicated against the {!Result_cache} by canonical fingerprint
    and admitted through {!Queue_admission} onto a {!Bfdn_engine.Pool}
    of worker domains; per-job wall-clock timeouts cancel cleanly
    through {!Bfdn_engine.Pool.cancel} from a per-round hook, and
    SIGTERM (via {!stop}) drains gracefully: stop accepting, cancel
    queued jobs, let running jobs finish, shut the pool down.

    Every request is assigned a correlation id at the edge; when
    [trace] is on, a {!Bfdn_obs.Span} recorder follows the request
    through parsing, cache lookup, admission, pool queueing and the
    runner's clock-bracketed phases, and is served back as a span tree
    from [GET /jobs/:id/spans]. Lifecycle events go through the
    structured {!Bfdn_obs.Log}; failed, timed-out, or robot-losing
    jobs leave a postmortem bundle in [postmortem_dir].

    Endpoints:
    - [POST /run] — body: a {!Bfdn_scenario.Scenario} spec. Responds
      [{cache, fingerprint, result}] with [cache] ["hit"] or ["miss"]
      and [result] byte-identical either way. Malformed JSON → 400 with
      a position-annotated error body; queue full → 429 +
      [Retry-After]; draining → 503; per-job timeout → 504. Query
      parameters: [wait=0] returns 202 [{id, status, fingerprint,
      trace}] immediately; [timeout_s=F] overrides the default job
      timeout.
    - [GET /jobs/:id] — job status, with [result] once done and
      [postmortem] when a bundle was written.
    - [GET /jobs/:id/spans] — the job's span tree
      ({!Bfdn_obs.Span.tree_json}), live (open spans carry their
      duration so far).
    - [GET /jobs/:id/stream] — chunked JSONL: one trace frame per
      executed round (the newest 1024 retained), live, then a final
      status line. Reading does not consume: every reader, concurrent
      or after the job settled, gets the same frames.
    - [GET /metrics] — merged obs registries (HTTP counters, per-job
      simulation metrics, GC pauses, pool latency histograms) plus
      cache and admission statistics; [?format=prometheus] renders the
      same data in text exposition format 0.0.4
      ({!Bfdn_obs.Prometheus.render}) with the service statistics
      folded in as [result_cache_*] / [admission_*] / [pool_workers].
    - [GET /registry] — {!Bfdn_scenario.Scenario.registry_json}.
    - [GET /healthz] — liveness and drain state. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port (tests, bench) *)
  workers : int;  (** engine pool domains *)
  queue_cap : int;  (** admission bound (queued + running jobs) *)
  cache_cap : int;  (** LRU entries; [0] disables caching *)
  timeout_s : float;  (** default per-job wall-clock timeout *)
  log : Bfdn_obs.Log.t;  (** structured lifecycle/request logging *)
  trace : bool;  (** per-request span recorders (default [true]) *)
  span_sink : (Bfdn_obs.Json.t -> unit) option;
      (** receives every finished span as flat JSON (e.g.
          {!Bfdn_obs.Sink.write_jsonl} to a span log file) *)
  postmortem_dir : string option;
      (** where failure bundles are written (created on demand);
          [None] disables postmortems *)
}

val default_config : config
(** [127.0.0.1:8080], recommended domain count, queue 64, cache 256,
    60 s timeout, silent log, tracing on, no span sink, no postmortem
    directory. *)

type t

val create : config -> t
(** Bind and listen (so a client may connect as soon as [create]
    returns, even before {!run} starts accepting), spawn the worker
    pool. @raise Unix.Unix_error when the address is unavailable. *)

val port : t -> int
(** The bound port — the ephemeral one when the config said [0]. *)

val run : t -> unit
(** Accept loop; returns after {!stop} has been called and the drain
    completed (all in-flight jobs settled, all connections closed, pool
    shut down). Installs [Signal_ignore] for SIGPIPE (a client hanging
    up mid-stream must not kill the server); the caller owns SIGTERM
    wiring (the CLI maps it to {!stop}). *)

val stop : t -> unit
(** Idempotent, callable from any thread or signal handler: stop
    accepting, then let {!run} drain and return. *)
