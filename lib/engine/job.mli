(** Pure simulation-job specifications.

    A job {e is} a {!Bfdn_scenario.Scenario.t} — the engine adds nothing
    to the spec type beyond construction sugar for the two classic
    instance shapes. [run job] is a pure function: two executions of the
    same spec, on any machine, in any worker, produce identical
    outcomes. This is what makes batches shardable (see {!Batch}) and
    results usable as evidence; since specs serialize to JSON
    ({!Bfdn_scenario.Scenario.to_string}), a batch is replayable data,
    not a closure. *)

module Scenario = Bfdn_scenario.Scenario

type instance =
  | Generated of { family : string; n : int; depth_hint : int }
      (** A {!Bfdn_trees.Tree_gen.of_family} instance. *)
  | Adversarial of { policy : string; capacity : int; depth_budget : int }
      (** A lazily materialized world grown online by a
          {!Bfdn_sim.Adversary} policy; the frozen tree is replayed after
          the adaptive run. *)

type t = Scenario.t = {
  instance : Scenario.instance;
  algo : string;  (** an {!Bfdn_scenario.Algo_registry} name *)
  algo_params : Bfdn_scenario.Param.binding list;
  k : int;  (** robot count *)
  seed : int;
      (** per-job seed; {!run} splits it into independent instance and
          algorithm streams with [Rng.split] *)
  max_rounds : int option;
  metrics : bool;
  faults : Bfdn_scenario.Param.binding list;
      (** fault-injection schedule ({!Bfdn_scenario.Fault_spec} schema);
          compiled to the same deterministic plan in every worker *)
  batch_seeds : int;
      (** always 1 for engine jobs — multi-seed specs run through
          {!Seed_batch}, not the per-job pool *)
}

type outcome = Scenario.outcome = {
  result : Bfdn_sim.Runner.result;
  replay_rounds : int option;
      (** adversarial jobs only: rounds of a re-run on the frozen tree
          (equal to [result.rounds] for deterministic algorithms) *)
  n : int;  (** node count of the (frozen) instance *)
  depth : int;
  max_degree : int;
}

val algos : string list
(** Algorithm names accepted by {!run} — the tree-runnable subset of
    {!Bfdn_scenario.Algo_registry.names}. *)

val policies : string list
(** Adversary policy names accepted by {!run} —
    {!Bfdn_scenario.World_registry.policy_names}. *)

val make : ?algo:string -> ?k:int -> ?seed:int -> instance -> t
(** Spec constructor with defaults [algo="bfdn"], [k=8], [seed=0];
    translates the classic instance shapes into scenario instances. *)

val describe : t -> string
(** One-line human-readable rendering, used in labels and error text. *)

val equal_outcome : outcome -> outcome -> bool
(** Structural equality; the whole record is immutable scalar data, so
    this is exactly "bit-for-bit identical run". *)

val run : t -> outcome
(** [Scenario.run] — derive the instance and algorithm RNG streams from
    [seed], build the environment, drive {!Bfdn_sim.Exec_env.run}.
    @raise Invalid_argument on an unknown algorithm/policy/family name. *)
