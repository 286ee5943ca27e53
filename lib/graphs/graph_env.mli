(** Synchronous exploration environment for non-tree graphs (Section 4.3).

    Differences with the tree environment {!Bfdn_sim.Env}:

    - an edge left through an unknown ("dangling") port may lead to an
      already explored node, or to a node that is not strictly further from
      the origin — the paper's rule then {e closes} the edge, the arriving
      node is {e not} marked explored in the second case, and the robot
      must go back where it came from on its next allowed move;
    - every robot knows, at any node it stands on, the node's graph
      distance to the origin (the paper's added assumption, geometric in
      the grid setting of [12]; here backed by a precomputed BFS);
    - exploration grows a BFS tree of the graph: the never-closed edges.
      The environment exposes each explored node's tree parent, which gives
      robots their way "up".

    Exploration is complete when no unknown port remains, i.e. every edge
    of the graph has been traversed (or closed from both endpoints). *)

type t

type robot = int

type move =
  | Stay
  | Via_port of int  (** any known-or-unknown port of the current node *)
  | Back  (** return along the arrival edge; the only legal move besides
              [Stay] after crossing an edge that got closed under the
              robot's feet *)

type port_state =
  | Unknown  (** never traversed: selectable for discovery *)
  | Tree  (** a retained (BFS-tree) edge *)
  | Closed  (** traversed and discarded by the closing rule *)

val create :
  ?fault:Bfdn_sim.Env.fault_hook -> Graph.t -> origin:Graph.node -> k:int -> t
(** [fault] (default {!Bfdn_sim.Env.fault_noop}) injects crashes and
    restarts: a down robot's selection is forced to [Stay] (reported as
    not {!allowed}), and a restart teleports the robot to the origin
    between rounds, clearing any pending backtrack. *)

val k : t -> int
val round : t -> int
val origin : t -> Graph.node
val position : t -> robot -> Graph.node
val positions : t -> Graph.node array

val is_explored : t -> Graph.node -> bool
val num_explored : t -> int

val dist : t -> Graph.node -> int
(** Distance to the origin — available to a robot standing on the node
    (and for any explored node, shared knowledge under complete
    communication). *)

val num_ports : t -> Graph.node -> int
val port : t -> Graph.node -> int -> port_state

val tree_parent : t -> Graph.node -> (Graph.node * int) option
(** [(parent, port-to-parent)] of an explored node in the grown BFS tree;
    [None] at the origin. *)

val needs_backtrack : t -> robot -> bool
(** The robot's last traversal was closed: it stands on the far endpoint
    (possibly unexplored) and must [Back]. *)

val unknown_ports : t -> Graph.node -> int list
(** Unknown ports of an explored node, increasing. *)

val open_nodes_at_min_dist : t -> Graph.node list
(** Explored nodes with at least one unknown port, restricted to minimum
    distance to the origin (anchoring set of graph-BFDN). *)

val check_invariants : t -> unit
(** Exhaustive re-verification of the incremental bookkeeping: symmetric
    port states, resolved targets, BFS-tree parents one step closer to the
    origin, unknown-port accounting. For tests.
    @raise Invalid_argument on a broken invariant. *)

val ports_from_origin : t -> Graph.node -> int list
(** Port sequence from the origin to an explored node along the grown BFS
    tree (the graph analogue of {!Bfdn_sim.Partial_tree.ports_from_root}). *)

val fully_explored : t -> bool
val all_at_origin : t -> bool

val unknown_ports_total : t -> int
(** Unknown ports remaining over all explored nodes — the graph
    analogue of the tree view's dangling-port count. *)

val allowed : t -> robot -> bool
(** Whether the fault hook lets the robot act in the upcoming round. A
    crashed robot reads as not allowed; algorithms should select [Stay]
    for it (any other selection is discarded by {!apply}). *)

val apply : t -> move array -> unit
(** One synchronous round.
    @raise Invalid_argument on illegal selections (bad port, [Back] with
    no pending backtrack, moving while backtrack is pending, robot on an
    unexplored node selecting anything but [Back]/[Stay]). Selections of
    robots that are not {!allowed} are discarded, not validated. *)

(** {2 Metrics and oracle} *)

val moves_total : t -> int
val closed_edges : t -> int
val traversed_edges : t -> int
(** Distinct graph edges traversed at least once. *)

val oracle_n_edges : t -> int
val oracle_n_nodes : t -> int
val oracle_radius : t -> int
(** Eccentricity of the origin — the paper's [D]. *)

val oracle_max_degree : t -> int
