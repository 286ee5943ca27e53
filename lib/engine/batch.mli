(** Deterministic parallel execution of job batches.

    The determinism contract: results are collected into a slot indexed
    by the job's position in the input, every job derives its randomness
    from its own spec ({!Bfdn_scenario.Scenario.run} is pure), and
    nothing a worker computes depends on any other worker. Hence a
    batch's output is a function of the input list alone — identical
    for 1 worker, [N] workers, or any scheduling order — which
    {!val:run} with worker counts 1 vs N (see [test/test_engine.ml])
    verifies job-for-job. *)

val map :
  ?probe:Bfdn_obs.Probe.t ->
  ?workers:int ->
  ?progress:(completed:int -> total:int -> unit) ->
  ('a -> 'b) ->
  'a array ->
  ('b, string) result array
(** [map f xs] applies [f] to every element on a fresh {!Pool} (shut down
    before returning) and returns the results {e in input order}. An
    element on which [f] raises yields [Error] carrying the exception
    text; the remaining elements still run. [workers] defaults to
    [Domain.recommended_domain_count ()]; [workers <= 1] runs inline in
    the calling domain (the sequential baseline — no pool is spawned).
    [progress] is called after each completion with a monotonically
    increasing [completed] (serialized, possibly from worker domains: it
    must not touch the pool).

    [probe] (default {!Bfdn_obs.Probe.noop}) is handed to the pool for
    per-job queue-wait/latency reporting (see {!Pool.create}); on the
    inline [workers <= 1] path every element reports as worker [0] with
    zero wait. The probe observes timing only — results and their order
    are identical with or without it. *)

val run :
  ?probe:Bfdn_obs.Probe.t ->
  ?workers:int ->
  ?progress:(completed:int -> total:int -> unit) ->
  Bfdn_scenario.Scenario.t list ->
  (Bfdn_scenario.Scenario.t * (Bfdn_scenario.Scenario.outcome, string) result)
  list
(** [map] specialized to {!Bfdn_scenario.Scenario.run}, pairing each
    outcome with its spec. *)

type agg = {
  jobs : int;
  errors : int;
  explored : int;  (** jobs whose run fully explored the instance *)
  total_rounds : int;
  per_algo : (string * Bfdn_util.Stats.summary) list;
      (** distribution of [result.rounds] per algorithm name, in first-seen
          order *)
}

val aggregate :
  (Bfdn_scenario.Scenario.t * (Bfdn_scenario.Scenario.outcome, string) result)
  list ->
  agg

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]); here so engine clients time
    sweeps without depending on [unix] directly. *)
