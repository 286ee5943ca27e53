(** Undirected graphs with port-numbered adjacency, used by the non-tree
    exploration setting of Section 4.3.

    Nodes are integers [0 .. n-1]; each node's incident edges are numbered
    by ports [0 .. degree-1]. Multi-edges and self-loops are rejected. *)

type t

type node = int

val of_edges : n:int -> (node * node) list -> t
(** Build from an undirected edge list.
    @raise Invalid_argument on out-of-range endpoints, duplicate edges or
    self-loops. *)

val n : t -> int

val num_edges : t -> int

val degree : t -> node -> int

val max_degree : t -> int

val neighbor : t -> node -> int -> node
(** [neighbor g v p] follows port [p] of [v]. *)

val reverse_port : t -> node -> int -> int
(** [reverse_port g v p] is the port at the far endpoint leading back to
    [v]. O(1): precomputed. *)

val bfs_dist : t -> node -> int array
(** Distances from a source; [max_int] for unreachable nodes. *)

val connected_from : t -> node -> bool array
(** Reachability from a source. *)

val eccentricity : t -> node -> int
(** Largest finite distance from the node (the paper's radius [D] when the
    node is the origin). *)
