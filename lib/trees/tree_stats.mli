(** Summary statistics of a tree instance, for experiment reporting. *)

type t = {
  n : int;  (** number of nodes *)
  edges : int;
  depth : int;  (** D *)
  max_degree : int;  (** Δ *)
  leaves : int;
  avg_branching : float;  (** mean child count over internal nodes *)
}

val compute : Tree.t -> t
(** One pass over the flat representation (no intermediate walks or
    allocation beyond the result record). *)

(** Streaming accumulator: the same statistics built one node at a time,
    in O(1) state, without a materialized {!Tree.t}. Feed every node
    exactly once (any order); the root is the node at [depth = 0]. Used
    by lazily materialized worlds, whose trees are never built. *)
module Acc : sig
  type acc

  val create : unit -> acc

  val add : acc -> depth:int -> children:int -> unit
  (** Record one node by its depth and child count. Allocation-free. *)

  val stats : acc -> t
  (** Snapshot of the statistics accumulated so far. *)
end

val pp : Format.formatter -> t -> unit
