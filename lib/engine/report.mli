(** Machine-readable sweep reports.

    Reports are {!Bfdn_obs.Json} trees (the tree and emitter are shared
    with the trace sinks). Floats are emitted in shortest-round-trip
    form — a BENCH_*.json value parses back to exactly the double that
    was measured — and non-finite floats as [null] to keep the output
    standard JSON.

    Every report body should start with {!meta}, which stamps the schema
    version, the seed and the worker count so perf trajectories stay
    comparable across PRs. *)

val write : path:string -> Bfdn_obs.Json.t -> unit
(** {!Bfdn_obs.Json.to_string} plus a trailing newline, written by
    {!Bfdn_util.Atomic_file.write}: on failure the previous [path] is
    untouched, the temporary file is removed and [Sys_error] is
    re-raised. *)

val peak_rss_bytes : unit -> int option
(** Peak resident set of this process, best-effort: VmHWM from
    [/proc/self/status] on Linux (kernel high-water mark, monotone over
    the process lifetime), [None] on platforms without it. *)

val meta : seed:int -> workers:int -> (string * Bfdn_obs.Json.t) list
(** The standard stamp: [schema_version], [seed], [workers],
    [peak_rss_bytes] ([null] where unavailable). Prepend to every
    BENCH_*.json body. *)

val of_sweep :
  label:string ->
  workers:int ->
  seed:int ->
  wall:float ->
  (Bfdn_scenario.Scenario.t * (Bfdn_scenario.Scenario.outcome, string) result)
  list ->
  Bfdn_obs.Json.t
(** Standard report body for one batch: the {!meta} stamp, label,
    core count, wall-time, jobs/sec, error count and per-algo round
    distributions. *)
