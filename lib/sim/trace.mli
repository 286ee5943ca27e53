(** Exploration traces and small-scale ASCII rendering.

    Attach {!record} to {!Runner.run}'s [on_round] hook to capture one
    frame per round; {!render_frame} then draws the discovered tree with
    robot positions, which the examples use as a terminal animation.

    Frames are held in a bounded ring buffer ({!Bfdn_obs.Sink.Ring}):
    once more than [capacity] frames have been recorded the oldest are
    overwritten, so arbitrarily long runs trace in constant memory. For
    a lossless record, stream frames as they happen ({!json_of_frame}
    with [explore run --trace FILE.jsonl]). *)

type frame = {
  round : int;
  positions : int array;
  explored : int;  (** nodes explored so far *)
  dangling : int;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the retained frames (default 4096).
    @raise Invalid_argument when [capacity < 1]. *)

val record : t -> Env.t -> unit
(** Capture the current state as a frame: once for the initial state,
    then as [~on_round:(Trace.record trace)]. *)

val frame_of_env : Env.t -> frame
(** The frame {!record} would store, without storing it. *)

val push : t -> frame -> unit
(** Record an externally built frame — e.g. one produced by a
    non-tree execution view ([Exec_env.t.frame]). *)

val frames : t -> frame list
(** Retained frames in chronological order (the newest [capacity] ones
    when the ring has wrapped). *)

val length : t -> int
(** Total frames ever recorded (may exceed [List.length (frames t)]
    once the ring wraps). *)

val retained : t -> int
(** Frames currently held, [min (length t) capacity]. *)

val dropped : t -> int
(** Frames overwritten so far: [length t - retained t]. *)

val json_of_frame : frame -> Bfdn_obs.Json.t
(** [{kind: "frame", round, explored, dangling, positions}]
    ({!Bfdn_obs.Sink.record}) — one line of the JSONL trace stream. *)

val render_frame : Env.t -> string
(** Indented rendering of the current discovered tree; each line shows one
    node, its dangling-port count, and the robots standing on it. Intended
    for trees of at most a few dozen nodes. *)

val depth_timeline : t -> Env.t -> string
(** Heat-map of robot counts per depth (rows) over time (columns, one per
    retained frame, subsampled to fit 72 columns): the breadth-first wave
    of BFDN is visible as a diagonal front. Uses the final environment to
    resolve node depths. *)
