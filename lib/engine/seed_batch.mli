(** Seed-batched execution of one spec over S consecutive seeds.

    A batched spec ([Scenario.batch_seeds = S]) stands for the S plain
    specs [Scenario.unbatch t 0 .. S-1]; [run] executes them one after
    another through the one round loop ({!Bfdn_sim.Exec_env.run}),
    sharing what the determinism oracle proves shareable:

    - one world record (build + stat scan) when the spec runs on the
      eager tree runner over a family whose generator ignores the
      instance stream;
    - the entire run, when lane 0 additionally completes without a
      single algorithm-stream draw on a shared fault-free world under a
      noop probe — then every sibling lane is provably byte-identical
      and its outcome is replicated without executing it (the
      {e identical-lane collapse}, the serve cache's fingerprint
      argument applied inside a batch).

    Outcomes are byte-identical to S sequential [Scenario.run] calls —
    QCheck-asserted across random configs and re-checked in CI's
    determinism lane. *)

type report = {
  outcomes : Bfdn_scenario.Scenario.outcome array;
      (** lane [i] = outcome of [Scenario.run (unbatch t i)], always *)
  shared_world : bool;  (** one world record served every lane *)
  collapsed : bool;
      (** lanes 1..S-1 replicated from lane 0's draw-free proof *)
}

val run :
  ?probe:Bfdn_obs.Probe.t ->
  ?on_round:(Bfdn_sim.Exec_env.t -> unit) ->
  Bfdn_scenario.Scenario.t ->
  report
(** Execute a (possibly) batched spec. [batch_seeds = 1] degenerates to
    one run.

    [probe]: per-lane observation; an {e enabled} probe disables the
    collapse, so every lane is observed. [on_round] is the round loop's
    hook ({!Bfdn_sim.Exec_env.run}), invoked after every round of every
    executed lane — raise from it to abort the batch (the serve layer's
    deadline/cancellation hook).
    @raise Invalid_argument when the spec fails validation. *)
