(** Online single-robot depth-first search.

    The optimal one-robot tree traversal (Section 1): go through an
    adjacent unexplored edge if possible, one step up otherwise. Finishes
    in exactly [2 (n - 1)] rounds with the robot back at the root.

    When the environment has [k > 1] robots, robot 0 does the work and the
    others stay at the root — useful as a fixed-team baseline. *)

val make : Bfdn_sim.Env.t -> Bfdn_sim.Exec_env.algo
