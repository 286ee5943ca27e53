(** The partially explored tree [T_online = (V, E)] of Section 2.

    [V] is the set of {e explored} nodes (occupied by at least one robot in
    the past); [E] the set of {e discovered} edges (at least one explored
    endpoint). A discovered edge with exactly one explored endpoint is
    {e dangling}. Nodes reuse the hidden tree's integer ids, but this
    structure only ever contains information already revealed to the
    robots; algorithms must read the exploration state exclusively through
    this interface.

    Port numbering matches {!Bfdn_trees.Tree}: at an explored non-root node,
    port [0] leads to the parent; other ports lead to children, each either
    already explored ([Child]) or dangling. Exploration is complete exactly
    when no dangling port remains.

    Storage is succinct and paged: per-node attributes are int32 columns
    of the run's {!Node_store} (shared with the world, the environment and
    the algorithm) and all port states share one paged pool (no per-node
    heap blocks). The id space grows a page at a time as ids are revealed,
    so exploring a prefix of a huge lazily-materialized world costs
    O(explored) memory, not O(n). *)

type t

type node = int

type port_state =
  | To_parent  (** port 0 of a non-root node *)
  | Dangling  (** discovered edge whose far endpoint is unexplored *)
  | Child of node  (** explored edge to an explored child *)

val root : t -> node

val is_explored : t -> node -> bool

val num_explored : t -> int

val num_dangling : t -> int
(** Total number of dangling edges; [0] iff exploration is complete. *)

val complete : t -> bool

val num_ports : t -> node -> int
(** Degree of an explored node (revealed on first visit).
    @raise Invalid_argument if the node is unexplored. *)

val port : t -> node -> int -> port_state
(** State of one port of an explored node. *)

val is_port_dangling : t -> node -> int -> bool
(** Allocation-free test of one port's state — equivalent to
    [port t v p = Dangling] without materializing the variant. Hot-path
    accessor: the port index must be in [0, num_ports t v) and is not
    checked. *)

val port_code : t -> node -> int -> int
(** One port's state as an immediate code: [-1] the port leads to the
    parent, [-2] it is dangling, otherwise the explored child's id — the
    port pool's own encoding, so reading it allocates nothing and takes
    one load. Hot-path accessor: it checks that the node is explored
    (@raise Invalid_argument otherwise), but the port index must be in
    [0, num_ports t v) and is not checked. *)

val iter_dangling_ports : t -> node -> (int -> unit) -> unit
(** Apply a function to each dangling port in increasing order, without
    building a list. *)

val iter_explored_children : t -> node -> (int -> node -> unit) -> unit
(** Apply [f port child] to each explored child in increasing port order,
    without building a list. *)

val parent : t -> node -> node option
(** [None] for the root. Defined for explored nodes. *)

val parent_id : t -> node -> node
(** The parent's id, or [-1] for the root — {!parent} without the option
    allocation. *)

val parent_port : t -> node -> int
(** The port {e on the parent} that leads down to the node, cached when the
    node was revealed through it; [-1] for the root. O(1). *)

val depth_of : t -> node -> int
(** Distance to the root (known online: nodes are reached along discovered
    edges). *)

val is_open : t -> node -> bool
(** Adjacent to at least one dangling edge (the paper's "open node"). *)

val subtree_open : t -> node -> bool
(** Whether the discovered subtree below the node (inclusive) still contains
    a dangling edge — i.e. whether [T(v)] is possibly not fully explored.
    O(1): each node keeps an open-branch counter (its dangling ports plus
    its explored children whose subtree is still open). Closing is
    absorbing, so a counter reaches 0 once and only then decrements its
    parent's: maintaining all counters costs O(n) over a whole run. *)

val min_open_depth : t -> int option
(** Minimum depth of an open node, [None] when exploration is complete. *)

val min_open_depth_raw : t -> int
(** {!min_open_depth} without the option allocation; [-1] when complete. *)

val open_nodes_at_depth : t -> int -> node list
(** All open nodes at one depth, sorted by node id (the canonical order —
    independent of the internal bucket layout). Builds a fresh list; use
    {!nth_open_at_depth} on hot paths. *)

val open_nodes_at_min_depth : t -> node list
(** [open_nodes_at_depth] at {!min_open_depth}; [[]] when complete. *)

val num_open_at_depth : t -> int -> int
(** Number of open nodes at one depth. O(1). *)

val nth_open_at_depth : t -> int -> int -> node
(** [nth_open_at_depth t d i] is the [i]-th open node of depth [d], for
    [0 <= i < num_open_at_depth t d], in the bucket's internal order. O(1)
    and allocation-free: hot paths loop over the indices instead of
    building {!open_nodes_at_depth}. That order is deterministic — a pure
    function of the reveal call sequence (insertion order, with removals
    moving the bucket's last node into the freed slot) — but {e not}
    canonical: it is not sorted and may differ between two discovery
    histories of the same frontier. Reductions over it must therefore be
    order-independent (min/max/count/uniquely-tie-broken argmin); anything
    order-sensitive must sort first, as {!open_nodes_at_depth} does.
    @raise Invalid_argument if [i] is out of range. *)

val is_ancestor : t -> node -> node -> bool
(** [is_ancestor t a v]: [a] lies on the (discovered) path from [v] to the
    root, inclusive of [v]. Both nodes must be explored. *)

val ports_from_root : t -> node -> int list
(** The port sequence leading from the root to an explored node — the
    stack contents of Algorithm 1 line 8 (in traversal order). O(depth):
    reads the {!parent_port} cache, no port-array scans. *)

val fold_explored : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val id_bound : t -> int
(** Exclusive upper bound on every node id revealed so far: the ids the
    node store backs (its [bound]), at most one page past the
    highest revealed or promised id. It only ever grows. *)

val store : t -> Node_store.t
(** The run's node store. Algorithms register their per-node scratch as
    columns of it ({!Node_store.column}), which then grow with the view. *)

val check_invariants : t -> unit
(** Exhaustive re-verification of the incremental bookkeeping (dangling
    counters, open-node buckets and their back-indices, the parent-port
    cache), recomputed from scratch. The open-branch counters are checked
    against per-subtree dangling-edge sums: each must equal the node's
    dangling ports plus its explored children with a positive sum, and
    {!subtree_open} must hold exactly when the node's own sum is positive.
    O(n log n). For tests.
    @raise Invalid_argument on a broken invariant. *)

(** Mutators, reserved to {!Env}: the simulator is the only component that
    may reveal information. Calling these from algorithm code would be
    cheating (reading the future); the test-suite exercises them only to
    build fixtures. *)
module Internal : sig
  val create : hidden_n:int -> root:node -> t
  (** Empty discovery state over a fresh store of capacity [hidden_n];
      the root is not yet revealed. *)

  val on_store : Node_store.t -> root:node -> t
  (** Empty discovery state whose columns join an existing store (a lazy
      world's, so parents and depths are stored once). *)

  val reveal_root : t -> num_ports:int -> unit
  (** Mark the root explored with its full port count; all its ports start
      dangling. Must be the first reveal, and happens once. *)

  val reveal_child : t -> node -> int -> node -> num_ports:int -> unit
  (** [reveal_child t v p c ~num_ports] records that the dangling port [p]
      of the explored node [v] leads to [c], and marks [c] explored with
      its full port count: port [0] leads back to [v], every other port
      starts dangling. One call does both, so no node is ever linked but
      unexplored. Revealing a node twice is an error. *)
end
