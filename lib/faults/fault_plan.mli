(** Pure, seeded fault schedules.

    A fault plan is immutable scalar data deciding, as a pure function of
    [(round, robot)], which robots are unavailable and when a crashed
    robot re-enters the exploration at the root. Because every predicate
    is pure — no cursor, no mutation — the same plan gives bit-identical
    answers whether it is queried from [Env.allowed] during an
    algorithm's [select] or from [Env.apply] later in the same round,
    and whether the run executes on one engine worker or many. Plans are
    compiled from scenario parameters (see {!Bfdn_scenario}), so they
    ride the JSON spec wire format rather than being closures.

    Vocabulary (the robot-side dual of {!Bfdn_sim.Adversary}'s
    world-side policies):

    - {e crash}: robot [i] stops moving at round [r] (permanently, or
      until a restart);
    - {e restart}: [d] rounds after its crash the robot re-enters {e at
      the root} — the replacement-worker model: a fresh robot walks in
      from the dock with no memory of its predecessor's route;
    - {e write drops}: each whiteboard (heartbeat) write is silently
      lost with probability [drop_writes] — detection of lost robots
      becomes delayed rather than instant;
    - {e move masks}: the per-round availability masks of the Section
      4.2 break-down model (the E6 vocabulary: rotating thirds, random
      coin, half fleet dead, only one mover), composed with crashes. *)

type mask =
  | No_mask
  | Rotating of int
      (** robot [i] is blocked in round [r] iff [(r + i) mod m = 0]
          ([m >= 2]: every robot moves [m-1] rounds out of [m]) *)
  | Random of float  (** blocked with probability [p], per (round, robot) *)
  | Half  (** robots [ceil(k/2) ..] never move ("half fleet dead") *)
  | Solo  (** only robot 0 ever moves *)

type t = {
  k : int;
  seed : int;  (** keys the pure [Random] and write-drop coins *)
  crash_at : int array;  (** length [k]; [max_int] = never crashes *)
  restart_at : int array;
      (** length [k]; [max_int] = never restarts; always [> crash_at] *)
  drop_writes : float;  (** whiteboard write-drop probability *)
  mask : mask;
}

val none : k:int -> t
(** The quiet plan: no crashes, no mask, no drops. *)

val make :
  ?drop_writes:float ->
  ?mask:mask ->
  ?seed:int ->
  k:int ->
  (int * int * int) list ->
  t
(** [make ~k crashes] with explicit [(robot, crash_round, restart_delay)]
    entries; [restart_delay = -1] means the robot never comes back. The
    last entry wins when a robot is listed twice.
    @raise Invalid_argument on a robot out of range, [crash_round < 1]
    or [restart_delay < -1]. *)

val random :
  rng:Bfdn_util.Rng.t ->
  k:int ->
  rate:float ->
  window:int ->
  restart:int ->
  ?drop_writes:float ->
  ?mask:mask ->
  unit ->
  t
(** Seeded sampling: each robot independently crashes with probability
    [rate], at a round uniform in [1, window]; [restart >= 0] brings
    every crashed robot back that many rounds later ([-1]: never). The
    pure-coin [seed] is drawn from [rng] too, so the whole plan is a
    deterministic function of the generator state. *)

(** {2 Pure predicates} *)

val down : t -> round:int -> robot:int -> bool
(** The robot cannot move this round (crashed or masked). *)

val restarts_after : t -> round:int -> robot:int -> bool
(** The robot re-enters at the root {e at the end of} this round (the
    last round of its crash window); true for exactly one round. *)

val drops_write : t -> round:int -> robot:int -> bool
(** Whether a whiteboard write by [robot] this round is silently lost —
    a pure coin keyed on [(seed, round, robot)]. *)

val quiet : t -> bool
(** No crashes scheduled, no mask, no write drops: behaviourally
    identical to running without a fault hook at all. *)

val survivors : t -> int
(** Robots that never crash permanently (never crash, or always
    restart). Masked-forever robots ([Half], [Solo]) still count — they
    are alive, merely pinned. *)

val stats : t -> rounds:int -> int * int
(** [(crashes, restarts)] that a run of [rounds] rounds injected. *)

val equal : t -> t -> bool

