(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Every randomized component of the library (tree generators, adversary
    strategies, workload samplers) draws from an explicit [Rng.t] so that all
    experiments are reproducible from a single integer seed. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val split : t -> int -> t
(** [split t i] derives the [i]-th child generator ([i >= 0]) of [t]'s
    current state {e without advancing} [t]: the derivation is a pure
    function of [(state, i)], so equal parents yield equal children
    regardless of the order in which children are requested. Distinct
    indices yield independent streams; the engine uses this to shard one
    root seed across a whole batch of jobs deterministically. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val equal : t -> t -> bool
(** State equality. Every draw advances the state, so
    [equal before after] over a bracketed computation proves the
    computation drew nothing — the batch engine uses this to detect
    draw-free algorithm runs (whose sibling seeds are then provably
    identical). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val coin : t -> float -> bool
(** [coin t p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform permutation of [0..n-1]. *)
