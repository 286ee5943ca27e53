(** The single algorithm-dispatch table of the repository.

    Every exploration-algorithm variant registers a canonical name
    (plus aliases), a documentation string, a {!Param} schema and {e one}
    constructor ({!make}) for the one environment it drives: synchronous
    trees ({!Bfdn_sim.Env}), graphs ({!Bfdn_graphs.Graph_env}) or the
    continuous-time relaxation ({!Bfdn_sim.Async_env}). Capability flags
    are {e derived} from that constructor ({!caps}), so listings can
    never drift from what a run accepts: {!Scenario} pairs the
    constructor with a spec's world once, when it plans the run, and is
    the only code that calls a constructor — the CLI ([bin/explore.ml]),
    the bench harness, the tests and the engine's {!Bfdn_engine.Batch}
    build a registry algorithm only through a spec. None of them
    carries its own name→constructor match, so a variant registered once
    is reachable everywhere (asserted in [test/test_scenario.ml]). *)

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
  rng : Bfdn_util.Rng.t;
      (** the scenario's algorithm RNG stream; consumed only by
          randomized variants *)
  probe : Bfdn_obs.Probe.t;
  params : Param.binding list;
  fault : Bfdn_faults.Fault_plan.t option;
      (** the scenario's compiled fault plan, when one is active. On
          trees and graphs, crashes and masks already act through the
          environment; tree algorithms read it for algorithm-side fault
          models (today: the whiteboard write-drop predicate read by
          crash-tolerant BFDN), and the async constructor builds its
          fault hook from it. *)
}

(** The environment an algorithm drives, with its constructor. *)
type make =
  | Tree of {
      adaptive : bool;
      algo : ctx -> Bfdn_sim.Env.t -> Bfdn_sim.Exec_env.algo;
    }
      (** a synchronous tree algorithm; [adaptive] when it is sound
          against a lazily materialized adversarial world *)
  | Graph of (ctx -> Bfdn_graphs.Graph_env.t -> Bfdn_sim.Exec_env.t)
      (** a graph algorithm; the caller threads the fault hook into
          {!Bfdn_graphs.Graph_env.create} *)
  | Async of (ctx -> Bfdn_trees.Tree.t -> k:int -> Bfdn_sim.Exec_env.t)
      (** a continuous-time algorithm on a hidden tree; the constructor
          builds the {!Bfdn_sim.Async_env} itself so parameters (robot
          speeds) can shape it *)

type entry = {
  name : string;
  aliases : string list;
  doc : string;
  params : Param.spec list;
  make : make;
}

val caps : entry -> caps
(** Derived from the constructor: exactly one of [tree], [graph] and
    [async] holds, and [adaptive] is the [Tree] constructor's flag. *)

val all : entry list
(** Registration order; canonical names and aliases are unique
    (enforced at module initialization). *)

val find : string -> entry option
(** Resolve a canonical name or an alias. *)

val names : string list
(** All canonical names, registration order. *)

val tree_names : string list
(** Canonical names runnable on the synchronous tree environment — the
    [sweep] vocabulary. *)

val adaptive_names : string list
(** Canonical names sound against adaptive adversaries. *)

val graph_names : string list
(** Canonical names runnable on graph worlds. *)

val async_names : string list
(** Canonical names runnable in the continuous-time relaxation. *)

val cli_choices : (string * string) list
(** [(token, canonical)] for every name {e and} its aliases: the single
    source of the CLI's [--algo] enum. Whether the algorithm drives the
    chosen world is {!Scenario.validate}'s call. *)
