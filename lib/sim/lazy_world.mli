(** Lazily materialized generator worlds — the deterministic instance
    families of {!Bfdn_trees.Tree_gen}, produced node by node as the
    exploration reveals them instead of being built up front.

    A lazy world holds O(promised) state in a {!Node_store} it creates
    and hands to the environment, so the view, the environment and the
    algorithm scratch are columns of the same store and an exploration
    that visits a prefix of an n=10^7 instance costs O(explored) memory
    end to end. This is the huge scale tier's world backend ([scale=lazy]
    in scenario world specs).

    Child ids are allocated densely at the parent's reveal, before the
    child's own subtree shape is decided (the {!Adversary} discipline),
    so the discovered tree never leaks hidden information. Shapes are
    exploration-order independent: each promised node carries a family
    role fixed at promise time; the ["random"] family draws child counts
    from a pure hash of [(seed, node id)]. Node {e ids} follow reveal
    order and therefore differ from the eager generator's DFS ids — the
    instances are equal as port-numbered trees up to relabeling, with
    identical summary statistics. *)

type t

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

val instance_capacity : family:string -> n:int -> depth_hint:int -> int
(** The node count {!make} would give the instance (saturating at
    [max_int]), without building anything — for validating a spec.
    @raise Invalid_argument on an unsupported family. *)

val world : t -> Env.world
(** The environment-facing world. Pass to {!Env.of_world}; each node's
    degree is decided exactly once, at its reveal. *)

val capacity : t -> int
(** Exact node count of the fully expanded instance. *)

val nodes_revealed : t -> int

val stats : t -> Bfdn_trees.Tree_stats.t
(** Streaming statistics over the revealed prefix (via
    {!Tree_stats.Acc} — no tree is ever materialized for this). *)

val materialize : t -> Bfdn_trees.Tree.t
(** The fully expanded instance as a plain eager tree, by running the
    same rules to exhaustion in id order on a fresh copy (the argument is
    not mutated). O(n) time and memory — the eager baseline the huge
    tier's RSS comparison measures against. *)
