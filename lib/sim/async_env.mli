(** Continuous-time exploration — the relaxation suggested by Remark 8.

    Instead of synchronous rounds, each robot [i] has a speed [s_i] and
    needs [1 / s_i] time units per edge. The environment is event-driven:
    whenever a robot arrives somewhere (and once at time 0), the algorithm
    is asked for its next action, with full knowledge of the discovered
    tree at that instant (complete communication, instantaneous
    decisions). Equal-time arrivals are processed in robot order, so runs
    are deterministic.

    A dangling edge being traversed is {e claimed}: the traversal will
    reveal it, so other robots should (and, for correctness of the
    accounting, may) not start a duplicate discovery; the claim is visible
    through {!claimed}.

    A robot that answers [Park] sleeps; parked robots are re-asked after
    every discovery event, so waiting for new frontier is expressible.
    The paper proves nothing in this model — this is the library's
    executable playground for the open extension. *)

type t

type robot = int

type action =
  | Park  (** sleep until the next discovery (or forever, once done) *)
  | Go_up
  | Go_port of int

type decide = t -> robot -> action

val create : ?speeds:float array -> Bfdn_trees.Tree.t -> k:int -> t
(** [speeds] defaults to all ones; each must be positive. *)

val view : t -> Partial_tree.t
val k : t -> int

val capacity : t -> int
(** Node count of the hidden tree, for sizing per-node state. *)

val now : t -> float
val position : t -> robot -> Partial_tree.node
val claimed : t -> Partial_tree.node -> int -> bool
(** Whether a dangling port is currently being traversed. *)

(** {2 Resumable driver}

    The event pump, in horizon-sized steps, so the one synchronous round
    loop ({!Exec_env.run}, through {!Exec_env.of_async}) can interleave
    fault checks and probes between units of continuous time. *)

type driver

val driver :
  ?fault:Env.fault_hook ->
  ?on_restart:(robot -> unit) ->
  decide ->
  t ->
  driver
(** Asks every robot for its initial decision (in robot order). [fault]
    is read against the integer clock [int_of_float now]: a down robot
    is forced to park when asked (in-flight traversals complete —
    crashes only ground a robot at a node); restarts are applied at
    horizon boundaries, teleporting grounded robots to the root and
    invoking [on_restart] so the algorithm can drop stale route state. *)

val advance : driver -> until:float -> unit
(** Process every event with timestamp [<= until], then advance the
    clock to [until], run the restart sweep and re-ask parked robots.
    @raise Failure past [10_000_000] events in one driver's life — a
    live-lock. *)

val fully_explored : t -> bool
val all_at_root : t -> bool
val makespan : t -> float
(** Time of the last arrival processed. *)

val distance_travelled : t -> robot -> int
(** Edges traversed by the robot. *)

val moves_total : t -> int
(** Sum of all distances travelled (unit-length traversals). *)

val positions : t -> Partial_tree.node array
(** A copy of all positions. *)

val min_speed : t -> float

val oracle_depth : t -> int
(** Depth of the hidden tree — for divergence guards, not visible to
    the algorithms. *)
