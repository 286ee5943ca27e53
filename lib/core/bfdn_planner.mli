(** BFDN in the restricted-memory / write-read communication model
    (Section 4.1, Algorithm 2).

    Robots communicate with a central planner only while standing at the
    root; elsewhere they interact with per-node whiteboards through the
    local [PARTITION] routine ({!Bfdn_sim.Whiteboard}). Each robot carries
    O(Δ + D log Δ) bits: the port stack towards its assigned anchor, and
    the finished-port set of its anchor observed on the way back.

    The planner tracks the working depth [d], the anchor list [A] at depth
    [d], the anchors [R] from which some robot has returned, and the
    candidate children [A'] / [R'] — exactly the state of Algorithm 2.
    Candidate anchors are withdrawn only when a robot anchored there has
    reached the root again, which is the information actually available at
    the root; the urn-game analysis still applies (Proposition 6), giving
    the same [2n/k + D^2 (min(log k, log Δ) + 3)] guarantee.

    Anchors are addressed as port paths (a parent node already explored
    plus one of its down-ports), so an anchor may be an as-yet-unexplored
    node — the robot's last breadth-first step then crosses the dangling
    edge itself. *)

type t

val make : Bfdn_sim.Env.t -> t

val algo : t -> Bfdn_sim.Exec_env.algo

(** {2 Instrumentation} *)

val working_depth : t -> int

val assignments_total : t -> int
(** Total anchor assignments performed by the planner (the write-read
    analogue of the reanchor count). *)

val assignments_at_depth : t -> int -> int

val memory_bits_used : t -> int
(** Largest robot memory actually used, in bits: the deepest port stack
    times the port width, plus the finished-port bit set — the quantity
    Section 4.1 bounds by [Δ + D log Δ]. *)

val max_stack_length : t -> int
(** Deepest anchor stack handed to a robot; at most [D]. *)
