(** Synchronous exploration environment.

    Holds the hidden tree, the robots' positions, the partially explored
    tree, the round counter and the run metrics. One call to {!apply}
    executes one synchronous round: every robot moves along one incident
    discovered edge (or stays), then newly reached nodes are revealed.

    Legality is enforced here: a robot may only stay, go up, or leave
    through a port of its current (hence explored) position — all of which
    are discovered edges, so no algorithm can read or use hidden
    information through this interface.

    The environment also implements the adversarial break-down model of
    Section 4.2 through its fault hook: a {e move mask} decides, per round
    and robot, whether the robot is allowed to move ({!mask_hook}); masked
    robots are pinned in place whatever the algorithm selected. *)

type t

type robot = int

type move = private int
(** A robot's selection for one round, as an immediate code: a move
    array is a flat int array, and a store into it needs no write
    barrier. [(m :> int)] reads the code. *)

val stay : move
(** [-2] *)

val up : move
(** [-1]: towards the root; illegal at the root. *)

val via : int -> move
(** [via p] is [p]: leave through port [p >= 0], explored or dangling.
    Unchecked: {!apply} rejects a port past the node's arity and a code
    below [-2]. *)

type mask = round:int -> robot:robot -> bool
(** A Section 4.2 move mask: [true] = the robot may move this round. *)

type fault_hook = {
  fh_enabled : bool;
      (** immutable master switch; when [false] the predicates are never
          called and the round loop is branch-identical to a fault-free
          environment *)
  fh_down : round:int -> robot:robot -> bool;
      (** crashed or masked this round — pinned in place, and reported
          as not {!allowed}. Must be pure: it is consulted both at select
          time and inside {!apply}. *)
  fh_restart : round:int -> robot:robot -> bool;
      (** [true] at the end of round [r] teleports the robot to the root
          before round [r+1] (a replacement robot coming online) *)
  fh_may_restart : bool;
      (** [false] lets {!apply} skip the per-robot restart sweep
          entirely — set it iff the plan can never answer [fh_restart]
          with [true] (e.g. all crashes are permanent) *)
}
(** Fault-injection hook threaded through the round loop. Compile one
    from a fault plan with [Bfdn_faults.Injector.hook], or from a move
    mask with {!mask_hook}. *)

val fault_noop : fault_hook
(** The disabled hook; default everywhere a [?fault] is accepted. *)

val mask_hook : mask -> fault_hook
(** The hook that pins exactly the robots the mask blocks, and never
    restarts one. [mask] must be pure, like [fh_down]. The environment
    counts no allowance: a plan's [k * A(M)] is
    [Bfdn_faults.Fault_plan.allowed_slots], and for a closure mask the
    caller sums [mask] over the rounds it ran. *)

type reactive_blocker = round:int -> selected:move array -> bool array
(** Remark 8's stronger adversary: it observes the moves the robots have
    {e selected} this round before deciding who may move ([true] =
    allowed). Composed with the fault hook (both must allow a robot). *)

val create : ?fault:fault_hook -> Bfdn_trees.Tree.t -> k:int -> t
(** [create tree ~k] places [k] robots on the root and reveals it.
    [fault] (default {!fault_noop}) injects crashes, restarts and move
    masks into the round loop. The round loop ({!Exec_env.run}), not the
    environment, reports rounds to a probe. *)

(** {2 Lazily materialized worlds}

    For adaptive-adversary experiments the hidden tree can be decided
    {e online}: node degrees are fixed only when a node is revealed, and
    child ids are pre-allocated at promise time, so the discovered tree
    never leaks information the robots should not have. See
    {!Lazy_world}, which builds such worlds from a generator family or
    from an adversary's budgeted policy ({!Adversary}). *)

type world = {
  w_capacity : int;  (** upper bound on node ids, for array sizing *)
  w_root : int;
  w_degree : node:int -> arriving:int -> round:int -> int;
      (** total ports of a node; queried exactly once, at its reveal *)
  w_child : int -> int -> int;
      (** [(revealed parent, child port)] to the promised node id *)
  w_stats : unit -> int * int * int;
      (** materialized so far: n, depth, max degree *)
  w_tree : unit -> Bfdn_trees.Tree.t;
      (** freeze the materialized tree *)
  w_store : Node_store.t option;
      (** the node store the world writes its own per-node columns to —
          a lazy world's, which the view then shares (one parent and one
          depth column per run). Such a world serves one environment.
          [None]: each environment creates a fresh store. *)
}

val of_world : ?fault:fault_hook -> world -> k:int -> t
(** {!create} over any world. *)

val world_of_tree : Bfdn_trees.Tree.t -> world
(** A fixed tree as a world; its [w_stats] are the tree's recorded n, depth
    and maximum degree. *)

val release : t -> unit
(** Hand the pages of the node store the environment created back to
    the domain's pool ({!Node_store.release}) once the run is over; from
    then on {!apply} raises, and so do [Exec_env]'s observers over the
    environment. A no-op on an environment over a world's own store (a
    lazy world's, [w_store <> None]), which the GC reclaims, and on one
    already released. Nothing may read the environment's view after it. *)

val released : t -> bool
(** Whether {!release} handed this environment's pages back. *)

val k : t -> int

val capacity : t -> int
(** Upper bound on node ids (the node count for tree-backed worlds);
    algorithms should size per-node state with this. *)

val round : t -> int
(** Number of rounds executed so far. *)

val view : t -> Partial_tree.t
(** The discovered tree. Read-only for algorithms ({!Partial_tree.Internal}
    is reserved to this module). *)

val position : t -> robot -> Partial_tree.node

val positions : t -> Partial_tree.node array
(** A copy of all positions. *)

val set_reactive_blocker : t -> reactive_blocker -> unit
(** Install a Remark 8 adversary. No guarantee from the paper applies
    under it; the library exposes it for experiments. *)

val allowed : t -> robot -> bool
(** Whether the fault hook allows this robot to move in the {e upcoming}
    round. A crashed robot reads as not allowed, which is exactly the
    Section 4.2 break-down signal algorithms already handle. *)

val apply : t -> move array -> unit
(** Execute one synchronous round with the given per-robot selections
    (length [k]). Robots the fault hook or a reactive blocker pins
    {!stay}, whatever they selected: their codes are not validated. A
    reactive blocker sees a copy of the selected codes.

    Every code is validated and resolved before anything moves, one
    port read per free robot ({!Partial_tree.port_code}): the robot
    stays, goes up (so does [via 0] at a non-root node), goes down to an
    explored child, or crosses a dangling port. A node reached across a
    dangling port is revealed once, in robot order, and the world's
    [w_degree] receives as [arriving] the number of robots that crossed
    into it this round; rounds without such a crossing count no
    arrivals.
    @raise Invalid_argument on an illegal selection of a robot free to
    move (a port out of range or a code below [-2], {!up} at the root),
    on a wrong array length, or on a released environment. *)

val fully_explored : t -> bool
(** No dangling edge remains. *)

val all_at_root : t -> bool

(** {2 Metrics} *)

val restarts : t -> int
(** Number of crash-with-restart teleports executed so far. *)

val moves_total : t -> int
(** Total edge traversals performed (all robots, all rounds). *)

val moves_of_robot : t -> robot -> int

val edge_events : t -> int
(** Number of edge events (Section 5): first parent-to-child crossings plus
    first child-to-parent crossings; at most [2*(n-1)]. *)

val multi_reveals : t -> int
(** Number of first-time edge traversals performed by two or more robots
    simultaneously. Always [0] under BFDN (Claim 2: the round-local
    selection makes discoveries exclusive); CTE routinely piles robots on
    one dangling edge. *)

(** {2 Harness-side oracle}

    These reveal the hidden instance parameters (n, D, Δ) for reporting and
    for bound formulas. Exploration algorithms must not call them. *)

val oracle_n : t -> int
val oracle_depth : t -> int
val oracle_max_degree : t -> int
val oracle_tree : t -> Bfdn_trees.Tree.t
