(* Seed-batched execution.

   A batched spec ([Scenario.batch_seeds = S]) stands for the S plain
   specs [unbatch t 0 .. unbatch t (S-1)]. Every lane that executes is
   the plain [Scenario.run] of its unbatched spec, one lane after
   another, so batched outcomes are byte-identical to S sequential runs
   by construction (and QCheck-asserted across random configs, and
   re-checked in CI's determinism lane). A lane on a deterministic
   family explores the one tree the process-wide instance cache holds
   for the instance, like every other run on it.

   What the batch owns is the {b identical-lane collapse}: lanes differ
   only through their RNG streams. When every seed hides the same tree
   ({!Bfdn_scenario.Scenario.seeds_share_tree}), with no faults and a
   noop probe, the only stream that can still reach the run is the
   algorithm stream — so if lane 0 completes having drawn {e nothing}
   from it ([Scenario.run_witnessed]'s witness), every other lane would
   execute the byte-identical run, and its outcome is replicated
   without running it. This is the serve cache's fingerprint argument
   applied within a batch, and it is what makes multi-seed validation
   sweeps of the (deterministic) paper algorithms nearly free. *)

module Scenario = Bfdn_scenario.Scenario
module Probe = Bfdn_obs.Probe

type report = {
  outcomes : Scenario.outcome array;
  shared_world : bool;
  collapsed : bool;
}

let run ?(probe = Probe.noop) ?on_round t =
  (match Scenario.validate t with
  | Ok () -> ()
  | Error msg ->
      invalid_arg ("Seed_batch: " ^ msg ^ " in " ^ Scenario.describe t));
  let s = t.Scenario.batch_seeds in
  let shared_world = Scenario.seeds_share_tree t in
  let lane l = Scenario.run_witnessed ~probe ?on_round (Scenario.unbatch t l) in
  (* Lane 0 runs first: it doubles as the collapse witness, so when the
     batch provably degenerates the other S-1 lanes are never even
     constructed. *)
  let outcome0, draw_free = lane 0 in
  let collapsed =
    s > 1 && shared_world && draw_free && t.Scenario.faults = []
    && not probe.Probe.enabled
  in
  let outcomes =
    if collapsed then Array.make s outcome0
    else Array.init s (fun l -> if l = 0 then outcome0 else fst (lane l))
  in
  { outcomes; shared_world; collapsed }
