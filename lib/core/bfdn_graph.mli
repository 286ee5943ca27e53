(** BFDN on non-tree graphs (Section 4.3).

    Requires the distance-to-origin knowledge granted by the paper (exact
    in grid graphs with rectangular obstacles [12]; provided by
    {!Bfdn_graphs.Graph_env}'s oracle in general). A robot crossing a
    dangling edge backtracks and {e closes} it when the far endpoint is
    already explored or not strictly further from the origin; otherwise
    the edge joins the growing BFS tree, on which plain BFDN runs.

    Guarantee (Proposition 9): at most
    [2n/k + D^2 (min(log Δ, log k) + 3)] rounds for a graph with [n]
    edges, radius [D] and maximum degree [Δ]; the never-closed edges form
    a BFS tree of the graph. *)

type t

val make : Bfdn_graphs.Graph_env.t -> t

val exec_env : t -> Bfdn_sim.Exec_env.t
(** Package the algorithm and its graph environment as a generic
    execution environment, so {!Bfdn_sim.Exec_env.run} (and through it
    [Scenario.run]) drives graph exploration with the same round loop,
    probes and fault plans as trees. The adapter lives here rather than
    in [lib/sim] because [lib/sim] does not depend on [bfdn_graphs].
    Drive a hand-built graph with [Exec_env.run (exec_env t)] and read
    the closed edges off the environment
    ({!Bfdn_graphs.Graph_env.closed_edges}). *)
