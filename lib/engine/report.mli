(** Machine-readable sweep reports.

    The JSON tree and emitter live in {!Bfdn_obs.Json} (shared with the
    trace sinks); the type is re-exported here so report-building code
    keeps writing [Report.Obj [...]]. Floats are emitted in
    shortest-round-trip form — a BENCH_*.json value parses back to
    exactly the double that was measured — and non-finite floats as
    [null] to keep the output standard JSON.

    Every report body should start with {!meta}, which stamps the schema
    version, the seed and the worker count so perf trajectories stay
    comparable across PRs. *)

type json = Bfdn_obs.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val to_string : json -> string
(** Compact single-line rendering. *)

val write : path:string -> json -> unit
(** [to_string] plus a trailing newline, written to [path ^ ".tmp"] and
    renamed over [path]. On failure the previous [path] is untouched, the
    temporary file is removed and the exception is re-raised. *)

val schema_version : int
(** Current report schema: bumped on incompatible shape changes. *)

val peak_rss_bytes : unit -> int option
(** Peak resident set of this process, best-effort: VmHWM from
    [/proc/self/status] on Linux (kernel high-water mark, monotone over
    the process lifetime), [None] on platforms without it. *)

val meta : seed:int -> workers:int -> (string * json) list
(** The standard stamp: [schema_version], [seed], [workers],
    [peak_rss_bytes] ([null] where unavailable). Prepend to every
    BENCH_*.json body. *)

val of_summary : Bfdn_util.Stats.summary -> json
(** Round-distribution summary as an object
    [{count, mean, stddev, min, max, p50, p95}]. *)

val of_metrics : Bfdn_obs.Metrics.t -> json
(** {!Bfdn_obs.Metrics.to_json}, re-exported for report builders. *)

val of_sweep :
  label:string ->
  workers:int ->
  seed:int ->
  wall:float ->
  ?sequential_wall:float ->
  (Bfdn_scenario.Scenario.t * (Bfdn_scenario.Scenario.outcome, string) result)
  list ->
  json
(** Standard report body for one batch: the {!meta} stamp, label,
    core count, wall-time, jobs/sec, error count, per-algo round
    distributions, and — when [sequential_wall] is given — the
    parallel-over-sequential speedup. *)
