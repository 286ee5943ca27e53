(** Seed-batched execution of one spec over S consecutive seeds.

    A batched spec ([Scenario.batch_seeds = S]) stands for the S plain
    specs [Scenario.unbatch t 0 .. S-1]; [run] executes each as the
    plain [Scenario.run] of its lane spec, one after another, save one
    case: when every seed hides the same tree
    ({!Bfdn_scenario.Scenario.seeds_share_tree}), the spec has no
    faults, the probe is noop and lane 0 completes without a single
    algorithm-stream draw ({!Bfdn_scenario.Scenario.run_witnessed}),
    every sibling lane is provably byte-identical and its outcome is
    replicated without executing it (the {e identical-lane collapse},
    the serve cache's fingerprint argument applied inside a batch).

    Outcomes are byte-identical to S sequential [Scenario.run] calls —
    QCheck-asserted across random configs and re-checked in CI's
    determinism lane. *)

type report = {
  outcomes : Bfdn_scenario.Scenario.outcome array;
      (** lane [i] = outcome of [Scenario.run (unbatch t i)], always *)
  shared_world : bool;
      (** every lane hides the same tree, the one the instance cache
          holds ({!Bfdn_scenario.Scenario.seeds_share_tree}) *)
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
