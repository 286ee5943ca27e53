(** CTE — Collective Tree Exploration of Fraigniaud, Gasieniec, Kowalski
    and Pelc [10].

    At every round, the robots standing on a node [v] are divided as
    evenly as possible among the {e unfinished branches} of [v]: ports
    that are dangling or lead to an explored child whose discovered
    subtree still contains a dangling edge. A robot on a node with no
    unfinished branch moves up (stays at the root).

    Guarantee: O(n / log k + D) rounds, hence the O(k / log k)
    competitive ratio; tight on sequential-breadth instances such as
    {!Bfdn_trees.Tree_gen.hidden_path} ([11]). *)

val make : Bfdn_sim.Env.t -> Bfdn_sim.Exec_env.algo
