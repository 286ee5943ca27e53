(** The round loop: one executor for every world.

    BFDN is one synchronous loop — each round every robot selects a
    move, then all moves are applied. {!run} is that loop, and the only
    one in the codebase: a tree algorithm is an {!algo}, run as
    [run (of_env algo env)], and every caller (the scenario layer, the
    seed batch engine, the bench, the examples, the tests) drives it
    directly. An {!t} packages the operations the loop, fault injection
    and the obs probes need (select/apply phases, termination test,
    round accounting, trace frames) behind closures, so tree
    environments ({!of_env}), grid/graph environments
    ([Bfdn_graphs.Graph_env], adapted by [Bfdn_graph.exec_env] in
    [lib/core] because [lib/sim] does not see [bfdn_graphs]) and the
    continuous-time relaxation ({!of_async}, Remark 8) run through the
    same code — including the probed loop's clock-bracketed
    [Finished_check]/[Select]/[Apply] phases that feed span trees and
    [/metrics]. *)

type algo = {
  select : Env.t -> Env.move array;
      (** Produce this round's selection for every robot. Must not mutate
          the environment. *)
  finished : Env.t -> bool;
      (** The algorithm's own termination condition, evaluated before each
          round. *)
}
(** An online algorithm over a tree {!Env}. *)

type result = {
  rounds : int;
  explored : bool;  (** all edges discovered and traversed *)
  at_root : bool;  (** all robots back at the root on termination *)
  moves : int;  (** total edge traversals *)
  edge_events : int;
  hit_round_limit : bool;
}

val pp_result : Format.formatter -> result -> unit
(** [rounds=R explored=B at_root=B moves=M events=E], plus
    [" (HIT ROUND LIMIT)"] when the divergence guard stopped the run. *)

type t = {
  k : int;
  round : unit -> int;
  select : unit -> unit;
      (** Compute this round's moves (held internally until {!apply}).
          Separate from [apply] so the probed loop can bracket the two
          phases with distinct clock stamps. *)
  apply : unit -> unit;  (** Commit the selected moves: one round. *)
  finished : unit -> bool;  (** The algorithm's own termination test. *)
  round_limit : unit -> int;
      (** Divergence guard when the caller sets no [max_rounds]. *)
  explored : unit -> bool;
  at_home : unit -> bool;  (** Every robot back at the origin/root. *)
  moves_total : unit -> int;
  edge_events : unit -> int;
  revealed : unit -> int;  (** Nodes revealed so far, the root included. *)
  frame : unit -> Trace.frame;  (** Current state as a trace frame. *)
  render : unit -> string;  (** Small-scale ASCII rendering. *)
}

val run :
  ?max_rounds:int ->
  ?on_round:(t -> unit) ->
  ?probe:Bfdn_obs.Probe.t ->
  t ->
  result
(** Repeatedly [select] and [apply] until [finished] holds or
    [max_rounds] is reached (default: [round_limit]). [on_round] is
    invoked after every applied round.

    This loop is the only code that reports a round to a probe. After
    every [apply], an enabled [probe] receives [on_round] with that
    round's deltas of [moves_total] (clamped to [k]), [revealed] and
    [edge_events]. Every round's three phases (finished-check, select,
    apply) are bracketed with monotonic clock reads and reported through
    [probe.on_phase]. With the default {!Bfdn_obs.Probe.noop} the loop
    reads no clock and no counter. The probe does not alter the loop's
    decisions, so results are identical with and without it. *)

val of_env : algo -> Env.t -> t
(** Tree adapter. The divergence guard is the termination bound
    [3 * n * (D + 2) + 100] of Section 2.1 at the environment's oracle
    [n] and depth, far above any correct run. It is recomputed in each
    round that revealed a node, since a lazily materialized world grows
    at reveals; a fixed tree's stats are memoized by {!Env.world_of_tree}. *)

val of_async :
  ?fault:Env.fault_hook ->
  ?on_restart:(Async_env.robot -> unit) ->
  Async_env.decide ->
  Async_env.t ->
  t
(** Async adapter: each {!t.apply} advances the event-driven simulation
    by one unit-time horizon ([Async_env.advance]), so "round [r]" covers
    continuous time [(r-1, r]]. The divergence guard is the tree bound
    (see {!of_env}) stretched by [1 / min_speed]. [fault] is interpreted
    against the integer horizon clock: a down robot is forced to park (it
    keeps any in-flight traversal — crashes ground a robot only at a
    node), and restarts teleport a grounded robot to the root, notifying
    the algorithm via [on_restart] so it can discard stale route state.
    A probe given to {!run} sees one [on_round] per horizon, which is
    what puts async runs on [/metrics]; [edge_events] counts first
    reveals, one per node. *)
