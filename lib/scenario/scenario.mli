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
    exclusively; this module contains no algorithm or family names.
    Each spec is resolved once into a run plan: the world's
    {!World_registry.source} (eager tree, lazy tree, adaptive world or
    graph) paired with the algorithm's one {!Algo_registry.make}
    constructor (synchronous tree runner, continuous-time relaxation or
    graph environment), once the pair is checked to fit.
    {!validate}, the wire version and every executor below read that
    plan. *)

type instance =
  | World of { world : string; params : Param.binding list }
      (** a {!World_registry} world — tree, grid or general graph; the
          world's kind together with the algorithm's constructor picks
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
  result : Bfdn_sim.Exec_env.result;
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

val of_label : ?params:Param.binding list -> string -> instance
(** The inverse of {!instance_label}: ["adv:P"] is the world grown
    online by policy [P], any other label the {!World_registry} world
    of that name. The CLI's [--world] tokens
    ({!World_registry.cli_choices}) are such labels. *)

val instance_schema : instance -> Param.spec list
(** The parameter schema of the instance's world or policy ([[]] for an
    unregistered name). *)

val describe : t -> string
(** One-line human-readable rendering, used in labels and error text. *)

val equal : t -> t -> bool

val equal_outcome : outcome -> outcome -> bool
(** Structural equality; the whole record is immutable scalar data, so
    this is exactly "bit-for-bit identical run". *)

val max_batch_seeds : int
(** [65536]: the largest [batch_seeds] {!validate} accepts. *)

val validate : t -> (unit, string) result
(** Build the spec's run plan and drop it: check every name against the
    registries, every parameter against its schema and accepted values
    ({!World_registry.world_source}, {!World_registry.policy_source}),
    that the algorithm has a constructor for the world's source (an
    oracle-reading algorithm cannot face an adaptive adversary, a
    graph world needs a graph algorithm, [scale=lazy] needs the tree
    runner) and the scalar ranges — among them [1 <= k <= 2^20] and
    [1 <= batch_seeds <= 65536]. A spec that validates runs without
    raising. *)

val validate_tree_run : t -> (unit, string) result
(** {!validate}, plus what {!run_on_tree} needs: an algorithm that
    drives a hidden tree (not a graph-only one). *)

(** {2 JSON codec} *)

val to_json : t -> Bfdn_obs.Json.t
val of_json : Bfdn_obs.Json.t -> (t, string) result

val to_string : t -> string
(** Compact single-line JSON. [of_string (to_string t) = Ok t]. *)

val of_string : string -> (t, string) result
(** Parses and {!validate}s. *)

val save : path:string -> t -> unit
(** {!to_string} plus a trailing newline, written by
    {!Bfdn_util.Atomic_file.write}.
    @raise Sys_error when [path] cannot be written; it is then
    untouched. *)

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
    pure, so requesting one stream never perturbs another). The instance
    stream stays inside this module: {!shared_tree} and {!materialize}
    hand out what it builds. *)

val algo_stream : Bfdn_util.Rng.t -> Bfdn_util.Rng.t

val fault_plan :
  t -> Bfdn_util.Rng.t -> Bfdn_faults.Fault_plan.t option
(** Compile the spec's fault schedule from the root stream ([None] when
    [faults = []], drawing nothing). Re-derivable anywhere the run is
    (re-)executed, so every execution injects the identical schedule. *)

val run_env :
  ?probe:Bfdn_obs.Probe.t ->
  ?on_round:(Bfdn_sim.Exec_env.t -> unit) ->
  t ->
  Bfdn_sim.Exec_env.algo ->
  Bfdn_sim.Env.t ->
  outcome
(** The shared execution step on a prepared tree environment: drive
    [Exec_env.of_env algo env] through {!Bfdn_sim.Exec_env.run} under
    the spec's round cap and read the outcome, with the oracle stats
    taken from [env] after the run. [algo] should come from
    {!Algo_registry.instantiate} on [env] with the spec's algorithm,
    parameters, algorithm stream and fault plan for the run to replay —
    the batch engine uses this to run lanes on one shared world record. *)

val run :
  ?probe:Bfdn_obs.Probe.t ->
  ?on_round:(Bfdn_sim.Exec_env.t -> unit) ->
  t ->
  outcome
(** Execute the spec — the single executor for every world kind. Derive
    the instance and algorithm RNG streams from [seed] ([Rng.split]
    indices 0 and 1), build the plan's source from the instance stream
    and its constructor's execution view — a tree environment (eager, lazily
    materialized or adaptive) with the algorithm, a
    {!Bfdn_graphs.Graph_env} for grid/graph worlds, or a
    {!Bfdn_sim.Async_env} for tree worlds paired with an async-only
    algorithm — and drive it through the one round loop,
    {!Bfdn_sim.Exec_env.run}. Adversarial scenarios additionally replay
    the spec on the frozen tree (as {!run_on_tree}) and report
    [replay_rounds]. [probe]/[on_round] observe the run without altering
    it; [on_round] receives the execution view after every round.
    @raise Invalid_argument when {!validate} fails, and for batched
    specs ([batch_seeds > 1] — execute those with the batch engine's
    [Seed_batch.run], or lane-by-lane via {!unbatch}). *)

val materialize : t -> Bfdn_trees.Tree.t
(** The hidden tree [run] would explore, built by the plan's source from
    the same instance stream — for [--dump-tree]-style exports. A
    [scale=lazy] world is expanded in full.
    @raise Invalid_argument when {!validate} fails, for adversarial
    scenarios (their tree only exists after a run) and for grid/graph
    worlds (no hidden tree). *)

val shared_tree : t -> Bfdn_trees.Tree.t option
(** The tree every seed of the spec hides, if there is one: [Some] for
    an eager tree family whose generator ignores the instance stream,
    run on the synchronous tree runner; [None] otherwise (randomized
    families, lazy, adaptive and graph worlds, async-only algorithms).
    The batch engine builds it once for a whole seed batch.
    @raise Invalid_argument when {!validate} fails. *)

val run_on_tree :
  ?probe:Bfdn_obs.Probe.t ->
  ?on_round:(Bfdn_sim.Exec_env.t -> unit) ->
  t ->
  Bfdn_trees.Tree.t ->
  outcome
(** Run the spec's algorithm on an externally supplied tree (e.g. a
    [--tree-file] replay) with the constructor of its plan and the same
    algorithm-stream derivation as {!run}; the spec's instance is
    otherwise ignored. Async-only algorithms run the continuous-time
    path on the given tree.
    @raise Invalid_argument unless {!validate_tree_run} holds. *)
