(** Small descriptive-statistics helpers used by the experiment harness. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val stddev : float array -> float
(** Population standard deviation; 0 on arrays of length < 2. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], nearest-rank on a sorted copy.
    Requires a non-empty array. *)

val linear_fit : (float * float) list -> float * float
(** Ordinary least-squares fit of [y = a x + b]; returns [(a, b)].
    Requires at least two points with distinct [x]. *)

val log_log_exponent : (float * float) list -> float
(** Growth exponent of [y] in [x]: the slope of a {!linear_fit} on
    [(log x, log y)] pairs (non-positive values clamped to 1 before the
    log). Used by the overhead-scaling experiment. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

val summarize : float array -> summary
(** Full summary of a non-empty array. *)
