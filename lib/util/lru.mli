(** A weighted least-recently-used map from strings, behind one mutex.

    Every entry has a weight (its [weight] function's value when it is
    inserted), and the map holds at most [budget] total weight: an
    insertion evicts from the least-recently-used end until the rest
    fits. An entry heavier than the whole budget is never retained. With
    [weight = fun _ -> 1] the budget is an entry count, and [budget = 0]
    retains nothing.

    Every operation takes the mutex, so one map may be shared by several
    domains and threads; the values themselves are shared as they are. *)

type 'a t

val create : budget:int -> weight:('a -> int) -> 'a t
(** @raise Invalid_argument when [budget < 0]. *)

val budget : 'a t -> int

val find : 'a t -> string -> 'a option
(** Lookup; a hit promotes the entry to most-recently-used. Hits and
    misses are counted in {!stats}. *)

val put : 'a t -> string -> 'a -> unit
(** Insert or replace [key ↦ value] as most-recently-used, then evict
    past the budget. A value heavier than the budget is not retained,
    and [key]'s old value is dropped. *)

val add : 'a t -> string -> 'a -> 'a
(** Insert [key ↦ value] unless [key] is present; either way the entry
    becomes most-recently-used, and the retained value is returned (the
    first one inserted wins a race between two builders of one key).
    A value heavier than the budget is returned without being retained. *)

val mem : 'a t -> string -> bool
(** Like {!find} but without promoting or counting. *)

val length : 'a t -> int

val keys_mru : 'a t -> string list
(** Keys from most- to least-recently-used. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  weight : int;  (** total weight of the entries, at most [budget] *)
}

val stats : 'a t -> stats
