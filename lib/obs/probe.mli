(** Profiling hooks threaded through the round loop, the algorithms and
    the batch engine.

    A probe is a record of callbacks defaulting to no-ops, behind one
    gate: [enabled] turns on the {e aggregate} instrumentation —
    per-round hooks ({!t.on_round}, {!t.on_phase}), per-job pool
    timing, and a once-per-run reanchor summary harvested from counters
    the algorithm maintains anyway. Cost per round is a handful of clock
    reads and counter bumps, bounded regardless of what the robots do,
    which is what keeps the E16 overhead benchmark under its 2% budget.
    No hook fires per robot or per anchor switch: an adversarial trap
    instance drives BFDN to ~100 reanchors per round at k = 512, and
    per-event calls there would blow that budget.

    The {!noop} probe has the gate off; hot paths test [enabled] to
    skip the instrumentation work entirely, so the disabled default
    costs one branch per probe point. *)

type phase =
  | Select  (** the algorithm's [select] call *)
  | Apply  (** the environment's apply, and this probe's [on_round] *)
  | Finished_check  (** the algorithm's [finished] predicate *)

type t = {
  enabled : bool;
      (** [false] only for {!noop}: hot paths may skip timing work. *)
  on_round :
    round:int -> moved:int -> idle:int -> revealed:int -> edge_events:int -> unit;
      (** After each round (fired by the round loop, [Exec_env.run],
          right after the environment applied the moves): the new round
          number, robots that moved, robots that stayed (computed for
          free as [k - moved]), nodes revealed and
          edge events of that round. *)
  on_phase : phase -> int -> unit;
      (** Phase duration in monotonic nanoseconds, once per round and
          phase (fired by the round loop, [Exec_env.run]). *)
  on_reanchor_summary : total:int -> by_depth:int array -> unit;
      (** Once per run, when the algorithm first reports finished:
          total anchor switches and the per-depth counts (index =
          depth) the algorithm accumulated at zero marginal cost. The
          array is the probe's to keep. *)
  on_robot_lost : robot:int -> round:int -> latency:int -> unit;
      (** Crash-tolerant algorithms: a robot was declared lost at
          [round], [latency] rounds after its last surviving heartbeat.
          Losses are bounded by the fleet size per run, not by the
          round count. *)
  on_robot_revived : robot:int -> round:int -> unit;
      (** A presumed-lost robot produced a fresh heartbeat (restart, or
          a false positive under whiteboard write drops) and was folded
          back into the fleet. *)
  on_job : worker:int -> wait_ns:int -> run_ns:int -> unit;
      (** Engine pool: per-job queue wait and execution time. May be
          invoked concurrently from worker domains — implementations
          must be domain-safe (e.g. write to per-worker registries). *)
}

val noop : t
(** The disabled probe; the default everywhere a probe is accepted. *)

val make :
  ?on_round:
    (round:int -> moved:int -> idle:int -> revealed:int -> edge_events:int -> unit) ->
  ?on_phase:(phase -> int -> unit) ->
  ?on_reanchor_summary:(total:int -> by_depth:int array -> unit) ->
  ?on_robot_lost:(robot:int -> round:int -> latency:int -> unit) ->
  ?on_robot_revived:(robot:int -> round:int -> unit) ->
  ?on_job:(worker:int -> wait_ns:int -> run_ns:int -> unit) ->
  unit ->
  t
(** An enabled probe with the given hooks (others stay no-ops). *)

val of_metrics : Metrics.t -> t
(** The standard single-domain instrumentation:
    counters [rounds], [moves], [reveals], [edge_events], [reanchors],
    [robots_lost], [robots_revived]
    and phase-time counters [select_ns]/[apply_ns]/[finished_check_ns];
    histograms [idle_robots] (one sample per round, from [on_round]),
    [reanchor_depth] (filled by the end-of-run summary) and
    [detect_latency_rounds] (crash-detection latency per lost robot). *)

val phase_ns : Metrics.t -> phase -> int
(** The nanoseconds an {!of_metrics} probe over this registry has summed
    for the phase so far (0 before the first round). *)

val traced :
  Span.t -> parent:Span.id -> Metrics.t -> t -> t * (state:string -> unit)
(** [traced sp ~parent m probe]: the span tree of one job run, as the
    server records it and E20 measures it. [probe] is the job's
    {!of_metrics} probe over [m]. Opens [execute] under [parent] and the
    three [phase:*] spans under it; the returned probe opens [run] at
    the round loop's first phase stamp, so [run] brackets the loop and
    not the world build. The returned function closes each phase span
    with what its counter in [m] gained since [traced] (the three sum
    to [run]'s wall time), then [run], then [execute] with a [state]
    attribute. On a disabled recorder: [probe] itself and a no-op. *)

val pool_probe : Metrics.t array -> t
(** Engine instrumentation: worker [i] records [queue_wait_s] and
    [job_s] histograms into registry [i] (single writer per registry, so
    no locking). Pass one registry per worker and fold with
    {!Metrics.merge_into} after the pool drains. *)
