(** Profiling hooks threaded through the simulator, the algorithms and
    the batch engine.

    A probe is a record of callbacks defaulting to no-ops, with two
    gates:

    - [enabled] turns on the {e aggregate} instrumentation: per-round
      hooks ({!t.on_round}, {!t.on_phase}), per-job pool timing, and a
      once-per-run reanchor summary harvested from counters the
      algorithm maintains anyway. Cost per round is a handful of clock
      reads and counter bumps — bounded regardless of what the robots
      do, which is what keeps the E16 overhead benchmark under its 2%
      budget.
    - [events] additionally turns on the {e per-event} hooks
      ({!t.on_reanchor}, {!t.on_select}). These fire up to O(k) times
      per round (an adversarial trap instance drives BFDN to ~100
      reanchors per round at k = 512), so even no-op calls would blow
      the overhead budget: event streams are strictly opt-in.

    The {!noop} probe has both gates off; hot paths use [enabled] /
    [events] to skip the instrumentation work entirely, so the disabled
    default costs one branch per probe point. *)

type phase =
  | Select  (** the algorithm's [select] call *)
  | Apply  (** [Env.apply] *)
  | Finished_check  (** the algorithm's [finished] predicate *)

type t = {
  enabled : bool;
      (** [false] only for {!noop}: hot paths may skip timing work. *)
  events : bool;
      (** Per-event hooks ([on_reanchor], [on_select]) fire only when
          set; implies [enabled]. *)
  on_round :
    round:int -> moved:int -> idle:int -> revealed:int -> edge_events:int -> unit;
      (** After each [Env.apply]: the new round number, robots that
          moved, robots whose effective move was [Stay] (computed for
          free as [k - moved]), nodes revealed and edge events of that
          round. *)
  on_phase : phase -> int -> unit;
      (** Phase duration in monotonic nanoseconds, once per round and
          phase (fired by the round loop, [Exec_env.run]). *)
  on_reanchor : robot:int -> depth:int -> route_len:int -> unit;
      (** Per-event ([events] only) — BFDN anchor switch: target depth
          and length of the freshly computed breadth-first route. *)
  on_reanchor_summary : total:int -> by_depth:int array -> unit;
      (** Once per run, when the algorithm first reports finished:
          total anchor switches and the per-depth counts (index =
          depth) the algorithm accumulated at zero marginal cost. The
          array is the probe's to keep. *)
  on_select : idle:int -> unit;
      (** Per-event ([events] only) — after each algorithm [select]:
          robots assigned [Stay] (costs an O(k) scan per round, hence
          gated). *)
  on_robot_lost : robot:int -> round:int -> latency:int -> unit;
      (** Crash-tolerant algorithms: a robot was declared lost at
          [round], [latency] rounds after its last surviving heartbeat.
          Fires under [enabled] (not [events]): losses are bounded by
          the fleet size per run, not by the round count. *)
  on_robot_revived : robot:int -> round:int -> unit;
      (** A presumed-lost robot produced a fresh heartbeat (restart, or
          a false positive under whiteboard write drops) and was folded
          back into the fleet. Fires under [enabled]. *)
  on_job : worker:int -> wait_ns:int -> run_ns:int -> unit;
      (** Engine pool: per-job queue wait and execution time. May be
          invoked concurrently from worker domains — implementations
          must be domain-safe (e.g. write to per-worker registries). *)
}

val noop : t
(** The disabled probe; the default everywhere a probe is accepted. *)

val make :
  ?events:bool ->
  ?on_round:
    (round:int -> moved:int -> idle:int -> revealed:int -> edge_events:int -> unit) ->
  ?on_phase:(phase -> int -> unit) ->
  ?on_reanchor:(robot:int -> depth:int -> route_len:int -> unit) ->
  ?on_reanchor_summary:(total:int -> by_depth:int array -> unit) ->
  ?on_select:(idle:int -> unit) ->
  ?on_robot_lost:(robot:int -> round:int -> latency:int -> unit) ->
  ?on_robot_revived:(robot:int -> round:int -> unit) ->
  ?on_job:(worker:int -> wait_ns:int -> run_ns:int -> unit) ->
  unit ->
  t
(** An enabled probe with the given hooks (others stay no-ops).
    [events] (default [false]) additionally enables the per-event
    hooks. *)

val of_metrics : Metrics.t -> t
(** The standard single-domain instrumentation — aggregate-only
    ([events = false], so its overhead stays within the E16 budget):
    counters [rounds], [moves], [reveals], [edge_events], [reanchors],
    [robots_lost], [robots_revived]
    and phase-time counters [select_ns]/[apply_ns]/[finished_check_ns];
    histograms [idle_robots] (one sample per round, from [on_round]),
    [reanchor_depth] (filled by the end-of-run summary) and
    [detect_latency_rounds] (crash-detection latency per lost robot). *)

val pool_probe : Metrics.t array -> t
(** Engine instrumentation: worker [i] records [queue_wait_s] and
    [job_s] histograms into registry [i] (single writer per registry, so
    no locking). Pass one registry per worker and fold with
    {!Metrics.merge_into} after the pool drains. *)
