(** Runtime-guarantee formulas of every algorithm discussed by the paper,
    used by the tests (theorem validation) and by the Figure 1 region
    computation.

    All formulas are stated for a tree with [n] nodes, depth [d], maximum
    degree [delta], explored by [k] robots. As in Appendix A, O-constants
    are dropped where the paper drops them. *)

val offline_lb : n:int -> k:int -> d:int -> float
(** [max (ceil (2(n-1)/k)) (2d)] — no offline traversal is faster
    (Section 1): every edge is crossed twice, and the deepest node is
    reached and left. *)

val offline_split : n:int -> k:int -> d:int -> float
(** [2d + ceil (2(n-1)/k)] — the rounds the constructive offline
    baseline of [7, 13] (the [offline] algorithm) takes at most:
    each robot covers one of [k] equal segments of the Euler tour and
    walks to and from it. The literature's [2 (n/k + d)] is lower on
    small trees: 6 nodes of depth 2 at [k = 8] take 6 rounds, not 5.5. *)

val dfs : n:int -> float
(** [2 (n - 1)] — single-robot depth-first search. *)

val bfdn : n:int -> k:int -> d:int -> delta:int -> float
(** Theorem 1: [2n/k + d^2 (min(log k, log delta) + 3)]. *)

val bfdn_writeread : n:int -> k:int -> d:int -> delta:int -> float
(** Proposition 6 — same expression as {!bfdn}. *)

val bfdn_breakdown : n:int -> k:int -> d:int -> float
(** Proposition 7: the average-moves threshold [2n/k + d^2 (log k + 3)]
    (the [log delta] improvement is lost under break-downs). *)

val bfdn_graph : n_edges:int -> k:int -> d:int -> delta:int -> float
(** Proposition 9 — {!bfdn} with [n] counting edges and [d] the radius. *)

val bfdn_rec : n:int -> k:int -> d:int -> delta:int -> ell:int -> float
(** Theorem 10:
    [4n/k^(1/ell) + 2^(ell+1)(ell + 1 + min(log delta, log k / ell)) d^(1+1/ell)]. *)

val bfdn_rec_best : n:int -> k:int -> d:int -> delta:int -> float * int
(** {!bfdn_rec} minimized over [1 <= ell <= log k / log log k] (the
    constraint under which BFDN_ℓ can outperform CTE, Figure 1 caption);
    returns the bound and the optimizing [ell]. *)

val cte : n:int -> k:int -> d:int -> float
(** [10]: [n / log2 k + d] (constants dropped as in Appendix A). *)

val yostar : n:int -> k:int -> d:int -> float
(** [13]: [2^(sqrt(log d · log log k)) · log k · (log n + log k) · (n/k + d)]. *)

val urn_game : delta:int -> k:int -> float
(** Theorem 3: [k min(log delta, log k) + 2k]. *)

val lower_bound_k_eq_n : d:int -> float
(** [6]: [d^2 / 16] — a concrete instantiation of the Ω(D²) lower bound
    for exploration with [k = n] robots, used as the floor line in the
    open-questions table. *)
