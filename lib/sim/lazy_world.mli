(** Online worlds: the hidden tree is decided node by node, as the
    exploration reveals it. One promise table serves two kinds of degree
    rule:
    - the deterministic instance families of {!Bfdn_trees.Tree_gen}
      ({!make}), produced lazily instead of being built up front — the
      huge scale tier's world backend ([scale=lazy] in scenario world
      specs);
    - an adaptive adversary's policy ({!adaptive}; the stock policies are
      in {!Adversary}), which sees each reveal as it happens and decides
      the node's children then, against the algorithm.

    A world holds O(promised) state in a {!Node_store} it creates and
    hands to the environment, so the view, the environment and the
    algorithm scratch are columns of the same store and an exploration
    that visits a prefix of an n=10^7 instance costs O(explored) memory
    end to end.

    Child ids are allocated densely at the parent's reveal, in promise
    order, before the child's own subtree shape is decided, so the
    discovered tree never leaks hidden information. Family shapes are
    exploration-order independent: each promised node carries a family
    role fixed at promise time; the ["random"] family draws child counts
    from a pure hash of [(seed, node id)]. Node {e ids} follow reveal
    order and therefore differ from the eager generator's DFS ids — the
    instances are equal as port-numbered trees up to relabeling, with
    identical summary statistics. *)

type t

type policy =
  node:int -> depth:int -> arriving:int -> round:int -> remaining:int -> int
(** An adaptive degree rule. At each reveal it sees the node, its depth,
    how many robots are arriving on it this round, the round number and
    the node budget left, and returns the number of children to promise:
    clamped to [min (max 0 wanted) remaining]. *)

val families : string list
(** Families available lazily: ["path"], ["star"], ["binary"],
    ["ternary"], ["spider"], ["caterpillar"], ["comb"], ["broom"],
    ["random"] — {!Tree_gen.of_family} minus the families whose
    construction is inherently global (["random-deep"], ["bounded3"],
    ["trap"], ["hidden-path"]). *)

val supported : string -> bool

val make : family:string -> n:int -> depth_hint:int -> seed:int -> t
(** Build the rules for one instance. [n] and [depth_hint] are
    interpreted exactly as by {!Tree_gen.of_family}; [seed] feeds the
    ["random"] family's hash (ignored elsewhere).
    @raise Invalid_argument on an unsupported family or an instance of
    more than {!Node_store.max_ids} nodes. *)

val adaptive : capacity:int -> depth_budget:int -> policy -> t
(** A world whose degrees [policy] decides. [capacity] bounds the total
    node count; a node at depth [depth_budget] gets no children, and the
    policy is not consulted for it. Against a {e deterministic} algorithm
    the {!frozen} tree is an ordinary instance on which a re-run
    reproduces the adaptive run exactly.
    @raise Invalid_argument unless [1 <= capacity <= Node_store.max_ids]
    and [depth_budget >= 0]. *)

val instance_capacity : family:string -> n:int -> depth_hint:int -> int
(** The node count {!make} would give the instance (saturating at
    [max_int]), without building anything — for validating a spec.
    @raise Invalid_argument on an unsupported family. *)

val world : t -> Env.world
(** The environment-facing world. Pass to {!Env.of_world}; each node's
    degree is decided exactly once, at its reveal. *)

val capacity : t -> int
(** Exact node count of the fully expanded family instance; an adaptive
    world's node budget. *)

val nodes_revealed : t -> int

val frozen : t -> Bfdn_trees.Tree.t
(** The tree promised so far (after a completed exploration, the full
    frozen instance). *)

val parent_of : t -> int -> int
(** Parent of a promised node ([-1] for the root). *)

val child_index : t -> int -> int
(** Position of a promised node among its siblings (0-based). *)

val depth_of_node : t -> int -> int

val materialize : t -> Bfdn_trees.Tree.t
(** The fully expanded family instance as a plain eager tree, by running
    the same rules to exhaustion in id order on a fresh copy (the
    argument is not mutated). O(n) time and memory — the eager baseline
    the huge tier's RSS comparison measures against.
    @raise Invalid_argument on an {!adaptive} world, which only its
    exploration decides. *)
