(** Minimal binary min-heap keyed by floats, for event-driven simulation.

    Ties are broken by insertion order (FIFO), which keeps event-driven
    runs deterministic when many events share a timestamp. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push q priority value]. *)

val pop : 'a t -> (float * 'a) option
(** Smallest priority first; among equal priorities, earliest pushed
    first. *)

val peek : 'a t -> (float * 'a) option
