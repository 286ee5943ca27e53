(* Seed-batched execution.

   A batched spec ([Scenario.batch_seeds = S]) stands for the S plain
   specs [unbatch t 0 .. unbatch t (S-1)]. Every lane that executes goes
   through the one round loop ([Exec_env.run]), one lane after another;
   the batch saves work through two mechanisms, each proved sound by the
   determinism oracle, never assumed:

   1. {b Shared world}: when every lane hides the identical tree
      ({!Bfdn_scenario.Scenario.shared_tree}: an eager tree family whose
      generator ignores the instance stream, on the synchronous tree
      runner), one [Env.world_of_tree] record — including its lazily
      memoized stat scan — serves all S environments.

   2. {b Identical-lane collapse}: lanes differ only through their RNG
      streams. With a shared world, no faults and a noop probe, the only
      stream that can still reach the run is the algorithm stream — so
      if lane 0 completes having drawn {e nothing} from it (checked by
      state comparison, {!Bfdn_util.Rng.equal}), every other lane would
      execute the byte-identical run, and its outcome is replicated
      without running it. This is the serve cache's fingerprint argument
      applied within a batch, and it is what makes multi-seed validation
      sweeps of the (deterministic) paper algorithms nearly free.

   The RNG streams are derived through the exact [Scenario] helpers, so
   batched outcomes are byte-identical to S sequential [Scenario.run]
   calls (QCheck-asserted across random configs, and re-checked in CI's
   determinism lane). Shapes with no shareable world (randomized
   families, graph/async/adversarial/lazy worlds) are exactly those
   sequential calls. *)

module Scenario = Bfdn_scenario.Scenario
module Algo_registry = Bfdn_scenario.Algo_registry
module Env = Bfdn_sim.Env
module Rng = Bfdn_util.Rng
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
  let world = Option.map Env.world_of_tree (Scenario.shared_tree t) in
  (* Lane [l] through the one round loop. Returns the outcome and whether
     the run drew nothing from its algorithm stream (only tracked on the
     shared world). *)
  let lane l =
    let spec = Scenario.unbatch t l in
    match world with
    | None -> (Scenario.run ~probe ?on_round spec, false)
    | Some w ->
        let root = Rng.create spec.Scenario.seed in
        let fault = Scenario.fault_plan spec root in
        let env =
          Env.of_world w ~k:t.Scenario.k
            ~fault:(Bfdn_faults.Injector.hook_opt fault)
        in
        let rng = Scenario.algo_stream root in
        let before = Rng.copy rng in
        let algo =
          Algo_registry.instantiate ~probe ~rng
            ~params:spec.Scenario.algo_params ?fault spec.Scenario.algo env
        in
        let o = Scenario.run_env ~probe ?on_round spec algo env in
        (o, Rng.equal rng before)
  in
  (* Lane 0 runs first: it doubles as the collapse witness, so when the
     batch provably degenerates the other S-1 lanes are never even
     constructed. *)
  let outcome0, draw_free = lane 0 in
  let collapsed =
    s > 1 && draw_free && t.Scenario.faults = [] && not probe.Probe.enabled
  in
  let outcomes =
    if collapsed then Array.make s outcome0
    else Array.init s (fun l -> if l = 0 then outcome0 else fst (lane l))
  in
  { outcomes; shared_world = world <> None; collapsed }
