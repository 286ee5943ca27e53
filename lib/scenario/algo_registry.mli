(** The single algorithm-dispatch table of the repository.

    Every exploration-algorithm variant registers a canonical name
    (plus aliases), a documentation string, a {!Param} schema and one
    constructor {e per environment it can drive}: synchronous trees
    ({!Bfdn_sim.Env}), graphs
    ({!Bfdn_graphs.Graph_env}), and the continuous-time relaxation
    ({!Bfdn_sim.Async_env}). Capability flags are {e derived} from the
    constructors that exist ({!caps}), so listings can never drift from
    what [instantiate*] accepts. The CLI ([bin/explore.ml]), the bench
    harness and the engine's {!Bfdn_engine.Batch} all resolve algorithm
    names here — none of them carries its own name→constructor match
    any more, so a variant registered once is reachable everywhere
    (asserted in [test/test_scenario.ml]). *)

type caps = {
  tree : bool;
      (** runs on the synchronous tree environment ({!Bfdn_sim.Env}) *)
  adaptive : bool;
      (** online — sound against a lazily materialized adversarial
          world (no oracle access; implies nothing is read beyond the
          discovered tree) *)
  graph : bool;  (** graph variant ({!Bfdn_graphs.Graph_env}) *)
  async : bool;  (** continuous-time variant ({!Bfdn_sim.Async_env}) *)
}

type ctx = {
  env : Bfdn_sim.Env.t;
  rng : Bfdn_util.Rng.t;
      (** the scenario's algorithm RNG stream; consumed only by
          randomized variants *)
  probe : Bfdn_obs.Probe.t;
  params : Param.binding list;
  fault : Bfdn_faults.Fault_plan.t option;
      (** the scenario's compiled fault plan, when one is active.
          Crashes and masks already act through the environment; this is
          for algorithm-side fault models (today: the whiteboard
          write-drop predicate read by crash-tolerant BFDN). *)
}

type graph_ctx = {
  g_env : Bfdn_graphs.Graph_env.t;
      (** built by the caller: the fault hook is threaded into
          {!Bfdn_graphs.Graph_env.create}, not here *)
  g_rng : Bfdn_util.Rng.t;
  g_params : Param.binding list;
}

type async_ctx = {
  a_tree : Bfdn_trees.Tree.t;
      (** the hidden tree; the constructor builds the
          {!Bfdn_sim.Async_env} itself so parameters (robot speeds) can
          shape it *)
  a_k : int;
  a_rng : Bfdn_util.Rng.t;
  a_params : Param.binding list;
  a_fault : Bfdn_sim.Env.fault_hook;
}

type entry = {
  name : string;
  aliases : string list;
  doc : string;
  params : Param.spec list;
  adaptive : bool;
      (** semantic flag, meaningful only alongside [make_tree] *)
  make_tree : (ctx -> Bfdn_sim.Runner.algo) option;
  make_graph : (graph_ctx -> Bfdn_sim.Exec_env.t) option;
  make_async : (async_ctx -> Bfdn_sim.Exec_env.t) option;
}

val caps : entry -> caps
(** Derived from constructor presence: [tree = (make_tree <> None)],
    [graph = (make_graph <> None)], [async = (make_async <> None)],
    [adaptive = adaptive && tree]. *)

val all : entry list
(** Registration order; canonical names are unique and every entry has
    at least one constructor (enforced at module initialization). *)

val find : string -> entry option
(** Resolve a canonical name or an alias. *)

val names : string list
(** All canonical names, registration order. *)

val tree_names : string list
(** Canonical names runnable on the synchronous tree environment — the
    [sweep]/[run] vocabulary. *)

val adaptive_names : string list
(** Canonical names sound against adaptive adversaries — the
    [adversary] subcommand vocabulary. *)

val graph_names : string list
(** Canonical names runnable on graph worlds. *)

val async_names : string list
(** Canonical names runnable in the continuous-time relaxation. *)

val cli_choices : (string * string) list
(** [(token, canonical)] for every tree-runnable name {e and} its
    aliases: the single source of the CLI's [--algo] enum. *)

val adaptive_cli_choices : (string * string) list
(** Same, restricted to adaptive-capable algorithms. *)

val instantiate :
  ?probe:Bfdn_obs.Probe.t ->
  ?rng:Bfdn_util.Rng.t ->
  ?params:Param.binding list ->
  ?fault:Bfdn_faults.Fault_plan.t ->
  string ->
  Bfdn_sim.Env.t ->
  Bfdn_sim.Runner.algo
(** Construct a named algorithm on a tree environment. [rng] defaults to
    a fresh deterministic stream (seed 0) — deterministic algorithms
    never touch it. @raise Invalid_argument on an unknown name, an
    algorithm with no tree constructor, or parameters violating the
    schema. *)

val instantiate_graph :
  ?rng:Bfdn_util.Rng.t ->
  ?params:Param.binding list ->
  string ->
  Bfdn_graphs.Graph_env.t ->
  Bfdn_sim.Exec_env.t
(** Construct a named algorithm on a graph environment, packaged for
    {!Bfdn_sim.Exec_env.run}. @raise Invalid_argument as
    {!instantiate}. *)

val instantiate_async :
  ?rng:Bfdn_util.Rng.t ->
  ?params:Param.binding list ->
  ?fault:Bfdn_sim.Env.fault_hook ->
  string ->
  Bfdn_trees.Tree.t ->
  k:int ->
  Bfdn_sim.Exec_env.t
(** Construct a named algorithm in the continuous-time relaxation on the
    given hidden tree, packaged for {!Bfdn_sim.Exec_env.run}.
    @raise Invalid_argument as {!instantiate}. *)
