(** Offline DFS-segment splitting ([7, 13]): the constructive
    [2 (n/k + D)]-round baseline.

    The Euler tour of the (known!) tree — length [2 (n-1)] — is cut into
    [k] segments of [ceil (2 (n-1) / k)] edges; robot [i] walks from the
    root to the start of segment [i], traverses it, and walks back to the
    root. This is the executable stand-in for optimal offline exploration,
    whose exact value is NP-hard ([10]); it is within a factor 2 of the
    [max (2n/k) (2D)] lower bound.

    This baseline {e plans from the hidden tree} (it is offline by
    definition); execution still goes through the legality-checked
    environment. *)

val make : Bfdn_sim.Env.t -> Bfdn_sim.Exec_env.algo

val planned_rounds : Bfdn_trees.Tree.t -> k:int -> int
(** Makespan of the plan without running it: the longest robot itinerary. *)
