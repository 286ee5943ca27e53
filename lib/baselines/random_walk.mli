(** Uniform random-walk team — a naive baseline for the example programs.

    Every robot independently leaves through a uniformly random port each
    round (never staying). Explores eventually with probability 1; no
    useful worst-case guarantee. Terminates when the tree is explored
    (robots are not required to re-gather at the root). *)

val make : rng:Bfdn_util.Rng.t -> Bfdn_sim.Env.t -> Bfdn_sim.Exec_env.algo
