(** Declarative, serializable run specifications.

    A scenario names everything needed to rebuild and execute one
    exploration run — a world (or adaptive adversary policy) with
    parameters, an algorithm with parameters, the robot count, a seed,
    an optional round cap and a probe configuration. [run] is a pure
    function of the spec: two executions of the same spec, on any
    machine, in any engine worker, produce identical outcomes. Specs
    round-trip through JSON ([to_string] / [of_string]), which is what
    makes batch jobs, sweep reports and `--spec` files replayable
    evidence rather than closures.

    Dispatch goes through {!Algo_registry} and {!World_registry}
    exclusively; this module contains no algorithm or family names. *)

type instance =
  | World of { world : string; params : Param.binding list }
      (** a {!World_registry} world — tree, grid or general graph; the
          world's kind together with the algorithm's constructors picks
          the execution path (synchronous tree runner, graph
          environment, or continuous-time relaxation) *)
  | Adversarial of { policy : string; params : Param.binding list }
      (** a lazily materialized world grown online by a
          {!World_registry} policy; the frozen tree is replayed after
          the adaptive run *)

type t = {
  instance : instance;
  algo : string;  (** an {!Algo_registry} name or alias *)
  algo_params : Param.binding list;
  k : int;  (** robot count, in [[1, 2^20]] *)
  seed : int;
      (** split into independent instance and algorithm RNG streams *)
  max_rounds : int option;
      (** round cap; [None] = the Section 2.1 termination bound *)
  metrics : bool;
      (** advisory probe configuration: harnesses honouring it (the
          CLI) attach a metrics registry and print a dashboard; probes
          never alter results *)
  faults : Param.binding list;
      (** fault-injection schedule parameters ({!Fault_spec} schema);
          [[]] = no faults. Compiled at run time into a
          {!Bfdn_faults.Fault_plan} from the seed's dedicated fault
          stream, so the schedule replays identically everywhere. *)
  batch_seeds : int;
      (** S >= 1: the spec stands for the S consecutive seeds
          [seed, seed + S), executed by the batch engine
          ([Bfdn_engine.Seed_batch]). [1] (the default) is the plain
          single-seed spec, byte-identical on the wire to pre-batch
          specs; values above 1 are emitted as a version-2
          ["batch":{"seeds":S}] member. *)
}

type outcome = {
  result : Bfdn_sim.Runner.result;
  replay_rounds : int option;
      (** adversarial scenarios only: rounds of a re-run on the frozen
          tree (equal to [result.rounds] for deterministic algorithms) *)
  n : int;  (** node count of the (frozen) instance *)
  depth : int;
  max_degree : int;
}

val make :
  ?algo:string ->
  ?algo_params:Param.binding list ->
  ?k:int ->
  ?seed:int ->
  ?max_rounds:int ->
  ?metrics:bool ->
  ?faults:Param.binding list ->
  ?batch_seeds:int ->
  instance ->
  t
(** Defaults: [algo="bfdn"], [k=8], [seed=0], no round cap, no metrics,
    no faults, [batch_seeds=1]. Parameter bindings are canonicalized
    (sorted). *)

val unbatch : t -> int -> t
(** [unbatch t i] is lane [i] of a batched spec: [batch_seeds = 1],
    [seed = t.seed + i]. The batch engine's outcome for lane [i] is
    byte-identical to [run (unbatch t i)] — the batch determinism
    oracle, asserted by the batch test suite.
    @raise Invalid_argument unless [0 <= i < t.batch_seeds]. *)

val world : ?params:Param.binding list -> string -> instance

val generated : family:string -> n:int -> depth_hint:int -> instance
(** The classic (family, n, depth_hint) tree instance. *)

val adversarial : policy:string -> capacity:int -> depth_budget:int -> instance

val instance_label : t -> string
(** ["comb"] / ["adv:thick-comb"] — the row label used by sweep tables. *)

val describe : t -> string
(** One-line human-readable rendering, used in labels and error text. *)

val equal : t -> t -> bool

val equal_outcome : outcome -> outcome -> bool
(** Structural equality; the whole record is immutable scalar data, so
    this is exactly "bit-for-bit identical run". *)

val validate : t -> (unit, string) result
(** Check every name against the registries, every parameter against
    its schema, capability compatibility (an oracle-reading algorithm
    cannot face an adaptive adversary) and the scalar ranges — among
    them [1 <= k <= 2^20] and [1 <= batch_seeds <= 65536]. *)

(** {2 JSON codec} *)

val to_json : t -> Bfdn_obs.Json.t
val of_json : Bfdn_obs.Json.t -> (t, string) result

val to_string : t -> string
(** Compact single-line JSON. [of_string (to_string t) = Ok t]. *)

val of_string : string -> (t, string) result
(** Parses and {!validate}s. *)

val save : path:string -> t -> unit

val load : string -> (t, string) result

val fingerprint : t -> string
(** Canonical spec hash (16 lowercase hex chars): FNV-1a/64 over the
    canonical wire form with the advisory [metrics] flag normalized to
    [false]. Because [run] is a pure function of the spec (the
    determinism oracle), equal fingerprints may soundly share a cached
    result — this is the serve layer's result-cache key. Equal specs
    (modulo [metrics]) hash equal; distinct specs collide only with
    ~2⁻⁶⁴ probability (collision-freedom over the golden suite is
    asserted in tests). *)

val outcome_to_json : outcome -> Bfdn_obs.Json.t
(** Canonical serializable outcome
    [{rounds, explored, at_root, moves, edge_events, hit_round_limit,
    replay_rounds, n, depth, max_degree}] with a fixed member order —
    same outcome ⇒ same bytes, which is what makes cached and fresh
    service responses byte-comparable. *)

val registry_json : unit -> Bfdn_obs.Json.t
(** Machine-readable dump of the algorithm/world/policy registries and
    the fault schema:
    [{schema_version, algorithms, worlds, policies, faults}]. Shared by
    [explore list --json] and the server's [GET /registry]. *)

(** {2 Execution} *)

(** {3 RNG stream derivation}

    The load-bearing seed derivation, shared verbatim with the batch
    engine so a batched lane and a plain run consume identical streams:
    [root = Rng.create seed], then split index 0 = instance stream,
    1 = algorithm stream, 2 = fault stream ({!Bfdn_util.Rng.split} is
    pure, so requesting one stream never perturbs another). *)

val instance_stream : Bfdn_util.Rng.t -> Bfdn_util.Rng.t
val algo_stream : Bfdn_util.Rng.t -> Bfdn_util.Rng.t

val fault_plan :
  t -> Bfdn_util.Rng.t -> Bfdn_faults.Fault_plan.t option
(** Compile the spec's fault schedule from the root stream ([None] when
    [faults = []], drawing nothing). Re-derivable anywhere the run is
    (re-)executed, so every execution injects the identical schedule. *)

val instantiate :
  probe:Bfdn_obs.Probe.t ->
  rng:Bfdn_util.Rng.t ->
  ?fault:Bfdn_faults.Fault_plan.t ->
  t ->
  Bfdn_sim.Env.t ->
  Bfdn_sim.Runner.algo
(** Construct the spec's algorithm on a prepared tree environment —
    {!Algo_registry.instantiate} with the spec's name and parameters.
    [rng] must be the spec's algorithm stream for the run to replay. *)

val run_env :
  ?probe:Bfdn_obs.Probe.t ->
  ?on_round:(Bfdn_sim.Exec_env.t -> unit) ->
  t ->
  Bfdn_sim.Runner.algo ->
  Bfdn_sim.Env.t ->
  outcome
(** The shared execution step on a prepared tree environment: drive
    [Exec_env.of_env algo env] through {!Bfdn_sim.Exec_env.run} under
    the spec's round cap and read the outcome, with the oracle stats
    taken from [env] after the run. [algo] should come from
    {!instantiate} on [env] with the spec's streams for the run to
    replay — the batch engine uses this to run lanes on one shared world
    record. *)

val run :
  ?probe:Bfdn_obs.Probe.t ->
  ?on_round:(Bfdn_sim.Exec_env.t -> unit) ->
  t ->
  outcome
(** Execute the spec — the single executor for every world kind. Derive
    the instance and algorithm RNG streams from [seed] ([Rng.split]
    indices 0 and 1), build the world's execution view — a tree
    environment (eager or lazily materialized) with the algorithm from
    {!Algo_registry}, a {!Bfdn_graphs.Graph_env} for grid/graph worlds,
    or a {!Bfdn_sim.Async_env} for tree worlds paired with an async-only
    algorithm — and drive it through the one round loop,
    {!Bfdn_sim.Exec_env.run}. Adversarial scenarios additionally replay
    the spec on the frozen tree ({!run_on_tree}) and report
    [replay_rounds]. [probe]/[on_round] observe the run without altering
    it; [on_round] receives the execution view after every round.
    @raise Invalid_argument when {!validate} fails, and for batched
    specs ([batch_seeds > 1] — execute those with the batch engine's
    [Seed_batch.run], or lane-by-lane via {!unbatch}). *)

val materialize : t -> Bfdn_trees.Tree.t
(** The hidden tree [run] would explore, generated from the same
    instance stream — for [--dump-tree]-style exports.
    @raise Invalid_argument for adversarial scenarios (their tree only
    exists after a run) and for grid/graph worlds (no hidden tree). *)

val run_on_tree :
  ?probe:Bfdn_obs.Probe.t ->
  ?on_round:(Bfdn_sim.Exec_env.t -> unit) ->
  t ->
  Bfdn_trees.Tree.t ->
  outcome
(** Run the spec's algorithm on an externally supplied tree (e.g. a
    [--tree-file] replay), with the same algorithm-stream derivation as
    {!run}; the spec's instance field is ignored. Async-only algorithms
    run the continuous-time path on the given tree. *)
