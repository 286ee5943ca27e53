(** The single world-dispatch table of the repository.

    Wraps every {!Bfdn_trees.Tree_gen} instance family, the warehouse
    grid generator and every {!Bfdn_sim.Adversary} policy behind named,
    schema-carrying entries. {!world_source} and {!policy_source} are
    where a name and its parameters are checked, once, and bound into a
    {!source}: the hidden instance a run explores, built from the spec's
    instance stream. {!Scenario} plans every run from a source; there is
    no other family→generator table in the repository. *)

type ctx = { rng : Bfdn_util.Rng.t; params : Param.binding list }

type kind =
  | Tree of (ctx -> Bfdn_trees.Tree.t)
      (** a fixed hidden tree, generated up front *)
  | Graph of (ctx -> Bfdn_graphs.Graph.t * int)
      (** a connected graph with its origin; the warehouse grid yields
          its underlying graph and origin cell *)

type entry = {
  name : string;
  doc : string;
  params : Param.spec list;
  kind : kind;
  size : Param.binding list -> int;
      (** the node count an eager build holds, up to a constant factor
          (tree worlds: [max n depth_hint]), under schema-valid
          parameters — checked against {!max_eager_nodes} *)
}

type policy_entry = {
  p_name : string;
  p_doc : string;
  p_params : Param.spec list;
      (** always includes [capacity] and [depth_budget] *)
  p_make : ctx -> Bfdn_sim.Lazy_world.t;
      (** an adaptive world ({!Bfdn_sim.Lazy_world.adaptive}); each result
          must drive exactly one environment *)
}

(** Where the hidden instance of a run comes from. Every builder takes
    the spec's instance stream and is a pure function of it; each call
    builds a fresh instance, except a deterministic tree family's, which
    comes from the {{!instance_cache}instance cache}. *)
type source =
  | Eager_tree of {
      build : Bfdn_util.Rng.t -> Bfdn_trees.Tree.t;
      deterministic : bool;
          (** the generator ignores the stream
              ({!Bfdn_trees.Tree_gen.deterministic_family}): every seed
              of a spec hides the identical tree, and [build] looks it
              up in the instance cache *)
    }
      (** a tree built up front ([scale=eager]) *)
  | Lazy_tree of (Bfdn_util.Rng.t -> Bfdn_sim.Lazy_world.t)
      (** a tree family generated at reveal ([scale=lazy]), so a run
          holds O(explored) memory; the ["random"] family's hash seed is
          one draw off the stream *)
  | Adaptive of (Bfdn_util.Rng.t -> Bfdn_sim.Lazy_world.t)
      (** a tree grown online by an adversary policy *)
  | Graph_world of
      (Bfdn_util.Rng.t -> Bfdn_graphs.Graph.t * Bfdn_graphs.Graph.node)
      (** a port-labeled graph with its origin *)

val max_eager_nodes : int
(** [2^24]: the largest [size] an eagerly built world (tree or
    graph) may have. Graph size parameters are bounded by it too. *)

val worlds : entry list

val find : string -> entry option

val tree_names : string list
(** Names whose kind is [Tree] — the [sweep] world vocabulary, and the
    worlds the CLI's [-n]/[--depth]/[--scale] flags size (identical to
    {!Bfdn_trees.Tree_gen.families}, asserted in tests). *)

val graph_names : string list
(** Names whose kind is [Graph] — the worlds whose source is a
    [Graph_world] (the [bfdn-graph] scenario vocabulary). *)

(** {2 Adaptive adversary policies} *)

val policies : policy_entry list

val find_policy : string -> policy_entry option

val policy_names : string list

val policy_prefix : string
(** ["adv:"]: a world grown online by policy [P] is labelled
    [policy_prefix ^ P] ([Scenario.instance_label]); the prefix keeps
    the [random] tree world and the [random] policy apart. *)

val cli_choices : (string * string) list
(** [(token, token)] for every world name and every policy as
    [policy_prefix ^ name]: the single source of the CLI's [--world]
    enum. *)

(** {2 Sources} *)

val world_source : string -> Param.binding list -> (source, string) result
(** Check a world and its parameters and bind them into a source.
    Errors: an unknown name; a parameter outside its schema or its
    accepted values ({!Param.validate}); an eager world above
    {!max_eager_nodes}; [scale=lazy] on a family without lazy support
    ({!Bfdn_sim.Lazy_world.supported}) or with an instance above the
    node store's id range ({!Bfdn_sim.Node_store.max_ids}). A source
    from [Ok] builds without raising. *)

val policy_source : string -> Param.binding list -> (source, string) result
(** The same for an adversary policy: an [Adaptive] source, or an error
    for an unknown name or a parameter outside the schema (the budgets
    are bounded: [1 <= capacity <= Node_store.max_ids],
    [depth_budget >= 0]). *)

(** {2:instance_cache The instance cache}

    One process-wide LRU of the trees of deterministic families, keyed
    by the world name and its default-filled [n] and [depth_hint] (the
    seed, algorithm and [k] never enter the key), so every run (every
    lane of a seed batch among them) and {!Scenario.materialize} of one
    instance share one build. It holds at most {!instance_cache_budget} nodes,
    evicting the least recently used tree; a larger tree is built per
    run. Randomized families, [scale=lazy], adaptive and graph worlds
    never enter it. Domain-safe: one mutex guards the table, builds run
    outside it, and of two racing builds of one key the first inserted
    is kept. *)

val instance_cache_budget : int
(** [2^18] cached nodes (about 8 MB of tree arrays). *)

val instance_cache_stats : unit -> Bfdn_util.Lru.stats
(** Counters since process start: a miss is a lookup that built its
    tree, and [weight] is the node count of the trees held now. *)
