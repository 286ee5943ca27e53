(** Instance families for experiments and tests.

    All generators are deterministic given their arguments (randomized ones
    take an explicit {!Bfdn_util.Rng.t}). Sizes below are node counts.

    Every constructor computes a saturating node-count estimate up front
    and raises [Invalid_argument] when it exceeds [Sys.max_array_length],
    so huge-tier parameter mistakes (e.g. a multiplicative family at
    n=10^7-scale depth) fail cleanly instead of wrapping an [int]. *)

(** Imperative tree builder used by all generators (and available for tests
    and custom workloads). *)
module Builder : sig
  type t

  val create : unit -> t
  (** Fresh builder containing only the root, node [0]. *)

  val root : t -> Tree.node

  val add_child : t -> Tree.node -> Tree.node
  (** Attach a new node under an existing one and return its id. *)

  val add_path : t -> Tree.node -> int -> Tree.node
  (** [add_path b v len] attaches a path of [len] edges below [v] and
      returns the id of its deepest node ([v] itself when [len = 0]). *)

  val size : t -> int

  val build : t -> Tree.t
end

val path : int -> Tree.t
(** Path with [n] nodes ([n >= 1]); depth [n-1]. *)

val star : int -> Tree.t
(** Root plus [n-1] leaves. *)

val complete : arity:int -> depth:int -> Tree.t
(** Complete [arity]-ary tree of the given depth. *)

val spider : legs:int -> leg_len:int -> Tree.t
(** Root with [legs] disjoint paths of [leg_len] edges. *)

val caterpillar : spine:int -> legs_per_node:int -> Tree.t
(** Path of [spine] edges with [legs_per_node] leaves attached to every
    spine node (including the root). *)

val comb : spine:int -> tooth_len:int -> Tree.t
(** Path of [spine] edges; every spine node (excluding the final one) also
    carries a downward path ("tooth") of [tooth_len] edges. *)

val broom : handle:int -> bristles:int -> Tree.t
(** Path of [handle] edges ending in a star with [bristles] leaves. *)

val random_tree : rng:Bfdn_util.Rng.t -> n:int -> ?max_depth:int -> unit -> Tree.t
(** Random recursive tree on [n] nodes: node [i] attaches to a uniformly
    random earlier node, rejecting parents at depth [max_depth] (default:
    unbounded). *)

val random_bounded_degree :
  rng:Bfdn_util.Rng.t -> n:int -> delta:int -> Tree.t
(** Random tree where every node keeps degree at most [delta] (so the
    maximum degree Δ of the result is at most [delta]); requires
    [delta >= 2]. *)

val random_deep : rng:Bfdn_util.Rng.t -> n:int -> depth:int -> Tree.t
(** Random tree containing a guaranteed path of length [depth] from the
    root, with the remaining nodes attached uniformly at random (at any
    depth <= [depth], so the tree depth is exactly [depth]). Requires
    [n >= depth + 1]. *)

val binary_trap : levels:int -> tail:int -> Tree.t
(** Recursive binary "trap": at each of [levels] branch points, one child
    starts a path of [tail] edges and the other continues to the next
    branch point. Splitting strategies halve their team at every level. *)

val hidden_path : k:int -> blocks:int -> Tree.t
(** Chain of [blocks] complete binary trees of depth [ceil(log2 k)], each
    linked to the next through a single designated leaf: breadth appears
    only gradually, which is adversarial for proportional-splitting
    exploration (the tightness regime of CTE, cf. [11]). *)

val iter_ordered : n:int -> (int array -> unit) -> unit
(** [iter_ordered ~n f] calls [f] once on every ordered (plane) tree of
    [n >= 1] nodes — Catalan(n-1) of them — as a parent array in
    preorder ([parents.(0) = -1], [parents.(i) < i]), ready for
    {!Tree.of_parents}. [f] sees one shared array, overwritten between
    calls: copy it to keep it. *)

val of_family :
  string -> rng:Bfdn_util.Rng.t -> n:int -> depth_hint:int -> Tree.t
(** Name-indexed dispatch used by the CLI and the bench harness. Accepted
    names: ["path"], ["star"], ["binary"] (complete arity 2), ["ternary"],
    ["spider"], ["caterpillar"], ["comb"], ["broom"], ["random"],
    ["random-deep"], ["bounded3"], ["trap"], ["hidden-path"]. Generators
    aim for approximately [n] nodes, using [depth_hint] where the family
    has a depth parameter.
    @raise Invalid_argument on an unknown name. *)

val families : string list
(** All names accepted by {!of_family}. *)

val deterministic_family : string -> bool
(** Whether the family's generator ignores its [rng] — i.e.
    {!of_family} is a pure function of [(name, n, depth_hint)], so
    every seed of a spec on this family explores the {e same} hidden
    tree. [false] for the randomized families ([random], [random-deep],
    [bounded3]) and for unknown names. The instance cache and the seed
    batch's identical-lane collapse rest on this. *)
