(** The single world-dispatch table of the repository.

    Wraps every {!Bfdn_trees.Tree_gen} instance family, the warehouse
    grid generator and every {!Bfdn_sim.Adversary} policy behind named,
    schema-carrying entries. The CLI, the bench harness and
    {!Scenario.run} resolve world and policy names here — there is no
    other family→generator table in the repository. *)

type ctx = { rng : Bfdn_util.Rng.t; params : Param.binding list }

type kind =
  | Tree of (ctx -> Bfdn_trees.Tree.t)
      (** a fixed hidden tree, generated up front *)
  | Grid of (ctx -> Bfdn_graphs.Grid.t)
      (** a warehouse grid — a graph world that keeps its geometry (the
          [grid] subcommand renders it); {!Scenario.run} drives it
          through {!build_graph} *)
  | Graph of (ctx -> Bfdn_graphs.Graph.t * int)
      (** a general connected graph with its origin *)

type entry = { name : string; doc : string; params : Param.spec list; kind : kind }

type policy_entry = {
  p_name : string;
  p_doc : string;
  p_params : Param.spec list;
      (** always includes [capacity] and [depth_budget] *)
  p_make : ctx -> Bfdn_sim.Lazy_world.t;
      (** an adaptive world ({!Bfdn_sim.Lazy_world.adaptive}); each result
          must drive exactly one environment *)
}

val worlds : entry list

val find : string -> entry option

val tree_names : string list
(** Names whose kind is [Tree] — the [run]/[sweep] world vocabulary
    (identical to {!Bfdn_trees.Tree_gen.families}, asserted in tests). *)

val graph_names : string list
(** Names whose kind is [Grid] or [Graph] — worlds {!build_graph}
    accepts (the [bfdn-graph] scenario vocabulary). *)

val cli_world_choices : (string * string) list
(** [(token, name)] pairs for tree worlds, for CLI enums. *)

val build_tree :
  ?rng:Bfdn_util.Rng.t -> ?params:Param.binding list -> string ->
  Bfdn_trees.Tree.t
(** Generate a named tree world. [rng] defaults to a fresh stream
    (seed 0); deterministic families ignore it.
    @raise Invalid_argument on an unknown or non-tree name, or
    parameters violating the schema. *)

val build_graph :
  ?rng:Bfdn_util.Rng.t -> ?params:Param.binding list -> string ->
  Bfdn_graphs.Graph.t * Bfdn_graphs.Graph.node
(** Generate a named graph world with its origin. Grid worlds yield
    their underlying port-labeled graph and origin cell.
    @raise Invalid_argument on an unknown or tree name, or parameters
    violating the schema. *)

val scale_of_params : Param.binding list -> string
(** The [scale] parameter of a tree-world binding list (["eager"] by
    default, ["lazy"] for the huge tier's lazily materialized worlds).
    Value checking is the caller's job ({!Scenario.validate} rejects
    anything else). *)

val deterministic_tree : ?params:Param.binding list -> string -> bool
(** Whether the named world is an eagerly built tree whose generator
    ignores the instance RNG stream
    ({!Bfdn_trees.Tree_gen.deterministic_family}) — exactly the worlds
    where every seed of one spec hides the identical tree, so a seed
    batch may build it once and share it. *)

val lazy_capacity : ?params:Param.binding list -> string -> int
(** The node count of the named family's [scale=lazy] instance under
    these (schema-valid) parameters, without building it — what
    {!Scenario.validate} checks against the node store's id range.
    @raise Invalid_argument on a family without lazy support. *)

val build_lazy :
  ?seed:int -> ?params:Param.binding list -> string ->
  Bfdn_sim.Lazy_world.t
(** Instantiate a named tree family as a lazily materialized world
    ([scale=lazy]). [seed] feeds the ["random"] family's hash.
    @raise Invalid_argument on an unknown name, parameters violating the
    schema, or a family without lazy support
    ({!Bfdn_sim.Lazy_world.supported}). *)

(** {2 Adaptive adversary policies} *)

val policies : policy_entry list

val find_policy : string -> policy_entry option

val policy_names : string list

val cli_policy_choices : (string * string) list

val build_adversary :
  ?rng:Bfdn_util.Rng.t -> ?params:Param.binding list -> string ->
  Bfdn_sim.Lazy_world.t
(** Instantiate a named policy as an adaptive lazy world (a fresh one per
    call).
    @raise Invalid_argument on an unknown name or bad parameters. *)
