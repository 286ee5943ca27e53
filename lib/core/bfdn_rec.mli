(** Recursive BFDN — Section 5, Appendices B and C.

    [BFDN_ℓ] composes the divide-depth functor (Algorithm 3) [ℓ - 1] times
    over the depth-bounded leaf algorithm [BFDN_1(k*, k', d')]:

    - a {e leaf} instance is Algorithm 1 restricted to a subtree, with
      anchors limited to relative depth [d']; robots finding no dangling
      edge within the budget turn inactive at the instance root, while
      robots already deep inside keep exploring their subtree (running
      "deep");
    - a {e divide} instance at level [m] runs [n_iter = d^(1/m)]
      iterations; each iteration partitions its robots into [n_team = k*]
      teams over the sub-roots collected from the previous iteration's
      still-active anchors, walks re-assigned robots to their new root,
      and steps the sub-instances synchronously until fewer than [k*]
      robots remain active;
    - per Definition 13, the top level runs with depth budgets
      [d_j = 2^(j·ℓ)] for [j = 1, 2, ...], interrupting each call right
      after its last iteration and handing positions and anchors to the
      next call, until the tree is fully explored.

    Only [K = ⌊k^(1/ℓ)⌋^ℓ] robots take part; the rest idle at the root
    (the paper's arbitrary-[k] reduction). Guarantee (Theorem 10):
    exploration completes within
    [4n/k^(1/ℓ) + 2^(ℓ+1) (ℓ + 1 + min(log Δ, log k / ℓ)) D^(1+1/ℓ)]
    rounds. Unlike plain BFDN, robots are not required to re-assemble at
    the root. *)

type t

val make : ell:int -> Bfdn_sim.Env.t -> t
(** @raise Invalid_argument if [ell < 1]. *)

val algo : t -> Bfdn_sim.Exec_env.algo
(** [finished] is full exploration (no return-to-root requirement). *)

(** {2 Instrumentation} *)

val calls_started : t -> int
(** Number of Definition 13 calls (values of [j]) started so far. *)

val robots_used : t -> int
(** [K = ⌊k^(1/ℓ)⌋^ℓ]. *)
