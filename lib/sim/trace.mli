(** Exploration frames and small-scale ASCII rendering.

    A {!frame} is one round's state: {!frame_of_env} captures it from a
    tree environment, [Exec_env.t.frame] from any world. To keep a run's
    frames, push them from [Exec_env.run]'s [on_round] hook into a
    [Bfdn_obs.Sink.Ring] of frames, which holds the newest [capacity] in
    constant memory; for a lossless record, stream them as they happen
    ({!json_of_frame} with [explore run --trace FILE.jsonl]).
    {!render_frame} draws the discovered tree with robot positions, which
    the examples use as a terminal animation, and {!depth_timeline} draws
    a list of frames as a depth-over-time heat-map. *)

type frame = {
  round : int;
  positions : int array;
  explored : int;  (** nodes explored so far *)
  dangling : int;
}

val frame_of_env : Env.t -> frame
(** The current state of a tree environment as a frame. *)

val json_of_frame : frame -> Bfdn_obs.Json.t
(** [{kind: "frame", round, explored, dangling, positions}]
    ({!Bfdn_obs.Sink.record}) — one line of the JSONL trace stream. *)

val render_frame : Env.t -> string
(** Indented rendering of the current discovered tree; each line shows one
    node, its dangling-port count, and the robots standing on it. Intended
    for trees of at most a few dozen nodes. *)

val depth_timeline : frame list -> Env.t -> string
(** Heat-map of robot counts per depth (rows) over time (columns, one per
    frame, subsampled to fit 72 columns): the breadth-first wave
    of BFDN is visible as a diagonal front. Uses the final environment to
    resolve node depths. *)
