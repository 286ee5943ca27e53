(** CTE in the write-read communication model — the way Fraigniaud,
    Gasieniec, Kowalski and Pelc [10] actually present it.

    No central planner: each node's whiteboard records which of its child
    ports lead to {e finished} subtrees. Robots standing on the same node
    see each other (and the local board), divide themselves evenly over
    the unfinished branches, and a robot moving up from a locally finished
    child marks the corresponding port on the parent's board as done.

    Completion information thus propagates only as fast as robots carry
    it, so the trajectories can differ from the complete-communication
    {!Cte}; both explore everything and regather at the root, and the
    round counts track each other closely (tested). *)

val make : Bfdn_sim.Env.t -> Bfdn_sim.Exec_env.algo
