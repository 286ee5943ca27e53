(** Arithmetic helpers shared by the guarantee formulas and algorithms. *)

val log_nat : int -> float
(** Natural logarithm of a positive integer. *)

val log2i : int -> int
(** [log2i n] is [floor (log2 n)] for [n >= 1], computed exactly. *)

val ceil_log2 : int -> int
(** Smallest [e] with [2^e >= n], for [n >= 1]. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is the ceiling of [a/b] for [a >= 0], [b > 0]. *)

val pow : int -> int -> int
(** [pow b e] integer power, [e >= 0]. Silently wraps on overflow — use
    {!pow_cap} wherever the result sizes an allocation. *)

val mul_cap : int -> int -> int
(** Saturating multiply of non-negative ints: [max_int] instead of
    wrapping. For overflow-safe size estimates (huge-tier generator
    guards). @raise Invalid_argument on a negative factor. *)

val add_cap : int -> int -> int
(** Saturating add of non-negative ints. *)

val pow_cap : int -> int -> int
(** Saturating integer power of non-negative ints: [pow] that answers
    [max_int] instead of wrapping, so size comparisons like
    [pow_cap arity depth >= n] stay correct at any magnitude. *)

val iroot : int -> int -> int
(** [iroot x l] is the largest [r >= 1] with [r^l <= x], for [x >= 1],
    [l >= 1]. *)

val clamp : int -> int -> int -> int
(** [clamp lo hi x] limits [x] to the interval [\[lo, hi\]]. *)
