(** Rooted trees with port-numbered adjacency.

    Nodes are integers [0 .. n-1]. Edges are implicit: every non-root node
    has exactly one parent. Ports follow the paper's convention (Section
    4.1): at every node distinct from the root, port [0] leads to the parent
    and ports [1 .. deg-1] lead to the children in order; at the root, ports
    [0 .. deg-1] lead to the children.

    This module describes the {e hidden} tree [T_offline]; online algorithms
    never see it directly — they observe it through {!Bfdn_sim.Env}.

    Storage is succinct: four flat [int array]s (parents, CSR child
    offsets, CSR child ids, depths) — ~4 words per node in 4 heap blocks
    total, with ports derived implicitly from the CSR slice. This is the
    representation the 10^6–10^7 "huge" scale tier runs on; the
    record/nested-array layout it replaced survives only as the test
    reference model (test/test_succinct.ml). *)

type t

type node = int

val of_parents : ?root:node -> node array -> t
(** [of_parents parents] builds a tree where [parents.(v)] is the parent of
    [v] and [parents.(root)] is [-1] (default root: [0]).
    @raise Invalid_argument if the array does not describe a tree rooted at
    [root] (cycle, disconnection, wrong root marker, out-of-range parent). *)

val n : t -> int
(** Number of nodes. *)

val num_edges : t -> int
(** [n t - 1]. *)

val root : t -> node

val depth_of : t -> node -> int
(** Distance to the root. *)

val depth : t -> int
(** Depth [D] of the tree: maximum distance of a node to the root. *)

val max_degree : t -> int
(** Maximum degree [Δ] (number of incident edges, counting the parent
    edge). *)

val parent : t -> node -> node option
(** [None] exactly for the root. *)

val children : t -> node -> node array
(** Children in port order. Allocates a fresh array (a copy of the CSR
    slice); use {!num_children}/{!child}/{!iter_children} on hot paths. *)

val num_children : t -> node -> int
(** Number of children. O(1), allocation-free. *)

val child : t -> node -> int -> node
(** [child t v i] is the [i]-th child of [v] ([0 <= i < num_children]),
    in port order. O(1), allocation-free (bad indices fail with the
    array bounds check). *)

val iter_children : t -> node -> (node -> unit) -> unit
(** Apply a function to each child in port order without allocating. *)

val degree : t -> node -> int
(** Number of incident edges of the node. *)

val num_ports : t -> node -> int
(** Same as {!degree}: ports are numbered [0 .. degree-1]. *)

val neighbor_via_port : t -> node -> int -> node
(** Resolve a port to the neighbouring node, following the port convention.
    @raise Invalid_argument on an out-of-range port. *)

val port_to_parent : t -> node -> int
(** Port leading to the parent ([0] for non-root nodes).
    @raise Invalid_argument at the root. *)

val port_of_child : t -> node -> node -> int
(** [port_of_child t v c] is the port at [v] leading to its child [c].
    @raise Not_found if [c] is not a child of [v]. *)

val is_ancestor : t -> node -> node -> bool
(** [is_ancestor t a v] holds if [a] lies on the path from [v] to the root,
    inclusive of [v] itself. *)

val path_to_root : t -> node -> node list
(** [v; parent v; ...; root]. *)

val subtree_size : t -> node -> int
(** Number of nodes of the subtree [T(v)] (computed once, O(1) after). *)

val subtree_nodes : t -> node -> node list
(** All descendants of [v], including [v], in preorder. *)

val iter_nodes : t -> (node -> unit) -> unit

val euler_tour : t -> node list
(** The depth-first traversal of all edges: the sequence of nodes visited by
    a single-robot DFS starting and ending at the root. Its length is
    [2*(n-1) + 1]. *)

val equal : t -> t -> bool
(** Structural equality (same parents, same root, same child orders). *)

val to_string : t -> string
(** Compact textual encoding ("n:parent parent ...", root marked [-1]) —
    for dumping frozen instances from the CLI. *)

val of_string : string -> t
(** Inverse of {!to_string}.
    @raise Invalid_argument on a malformed encoding. *)

val to_dot : t -> string
(** Graphviz rendering. *)

val validate : t -> unit
(** Re-checks all structural invariants.
    @raise Invalid_argument when an invariant is broken. *)
