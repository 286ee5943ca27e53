(** The two-player zero-sum balls-in-urns game of Section 3.

    The board is [k] urns holding [k] balls in total (initially one each).
    Each step, the adversary picks a ball from a non-empty urn, then the
    player moves it to an urn of its choice. [U_t] is the set of urns the
    adversary has never picked from ("virgin" urns below); the game stops
    as soon as every urn of [U_t] holds at least [delta] balls (for
    [delta >= k], as soon as [U_t] is empty).

    Theorem 3: moving each ball to the least-loaded virgin urn ends the
    game within [k * min(log delta, log k) + 2k] steps, whatever the
    adversary does. The exact optimal game value is computable by the
    paper's [R(N, u)] recursion ({!dp_value}). *)

type board

val create : delta:int -> k:int -> board
(** Fresh board: [k] urns, one ball each, all virgin. *)

val create_custom : delta:int -> loads:int array -> virgin:bool array -> board
(** Arbitrary initial condition — Section 3.2 uses one non-virgin urn with
    [k - u] balls plus [u] virgin urns with one ball each.
    @raise Invalid_argument on negative loads or mismatched lengths. *)

val k : board -> int
val delta : board -> int
val load : board -> int -> int
val steps : board -> int

val virgin_count : board -> int
val virgin_balls : board -> int
(** [u_t] and [N_t] of the analysis. *)

val finished : board -> bool
(** The stopping condition above. *)

type player = board -> forbidden:int -> int
(** Chooses the destination urn [b_t]; [forbidden] is the urn the adversary
    just picked from ([a_t] is no longer virgin when the player moves). *)

type adversary = board -> int option
(** Chooses a non-empty urn [a_t], or resigns with [None] (resigning never
    helps the adversary; it exists so bounded strategies can stop). *)

(** {2 Strategies} *)

val player_least_loaded : player
(** The paper's strategy: least-loaded virgin urn (ties to the smallest
    index); falls back to the least-loaded urn overall when no virgin urn
    remains. *)

val player_most_loaded : player
(** Anti-strategy, for comparison in the ablation bench. *)

val player_random : Bfdn_util.Rng.t -> player

val adversary_greedy : adversary
(** The optimal shape from Lemma 4: repeat a non-virgin urn whenever one
    holds a ball (option (a)); otherwise spend the fullest virgin urn
    (option (b)). *)

val adversary_fresh_first : adversary
(** Always burns a virgin urn when possible — the anti-greedy. *)

val adversary_random : Bfdn_util.Rng.t -> adversary

val adversaries : (string * string) list
(** [(name, doc)] for every named adversary strategy — the dispatch
    table behind the CLI's [game --adversary] enum. *)

val adversary_of_name : rng:Bfdn_util.Rng.t -> string -> adversary
(** Resolve a name from {!adversaries}; [rng] is consumed only by the
    randomized strategy. @raise Invalid_argument on an unknown name. *)

(** {2 Play} *)

val step : board -> adversary -> player -> (int * int) option
(** Play a single move: adversary picks [a_t], player places the ball on
    [b_t]; returns [(a_t, b_t)], or [None] if the game is finished or the
    adversary resigns. *)

val play : ?max_steps:int -> board -> adversary -> player -> int
(** Run until {!finished} or adversary resignation; returns the number of
    steps. [max_steps] defaults to a value far above the Theorem 3 bound
    and raises [Failure] when exceeded (a violated theorem). *)

val bound : delta:int -> k:int -> float
(** The Theorem 3 bound [k * min(log delta, log k) + 2k]. *)

val render : board -> string
(** One-line-per-urn ASCII rendering ([*] = ball, [v] marks virgin urns)
    for demos. *)

(** {2 Exact game value} *)

val dp_value : delta:int -> k:int -> int
(** Optimal game length under the balancing player, by the [R(N, u)]
    dynamic program of the proof of Theorem 3 (configurations are fully
    described by [(N_t, u_t)] under the balancing player). O(k^2) states. *)
