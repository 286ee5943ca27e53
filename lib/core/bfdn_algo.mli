(** Breadth-First Depth-Next (Algorithm 1), complete-communication model.

    Behaviour of each robot: when at the root it is {e re-anchored} to an
    open node of minimum depth carrying the fewest anchored robots, and
    walks to it with breadth-first ([BF]) moves along its stacked port
    path; once the stack is empty it performs depth-next ([DN]) moves —
    through an adjacent dangling edge not selected by an earlier robot of
    the same round if one exists, one step up otherwise — until it reaches
    the root again.

    The implementation is mask-aware: robots whose move the environment's
    adversarial mask disallows (Section 4.2) are skipped in the
    sequential-decision loop, exactly as prescribed by the paper's
    adversarial variant. With the default all-allowed mask this is plain
    Algorithm 1.

    Guarantee (Theorem 1): exploration plus return in at most
    [2n/k + D^2 (min(log k, log Δ) + 3)] rounds. *)

type t

(** Anchor-selection policy, for the ablation study. The paper's policy —
    backed by the urn-game analysis — is {!Least_loaded}. *)
type policy =
  | Least_loaded  (** fewest anchored robots, ties to the smallest id *)
  | First_open  (** smallest id among minimum-depth open nodes *)
  | Random_open of Bfdn_util.Rng.t  (** uniform among minimum-depth open nodes *)

val make :
  ?policy:policy ->
  ?shortcut:bool ->
  ?probe:Bfdn_obs.Probe.t ->
  ?fault_tolerant:bool ->
  ?suspect_after:int ->
  ?drop:(round:int -> robot:int -> bool) ->
  Bfdn_sim.Env.t ->
  t
(** [probe] (default {!Bfdn_obs.Probe.noop}) receives [on_reanchor] at
    every anchor switch (with the anchor's depth and the breadth-first
    route length) and [on_select ~idle] after every selection round.

    [shortcut] (default [false]) enables the ablation variant that
    re-anchors a robot the moment its depth-next excursion stalls, routing
    it through the lowest common ancestor instead of the root. The paper
    deliberately keeps the walk home — it is what makes the write-read
    implementation possible (Section 2) — so [shortcut] exists to measure
    what that choice costs in the complete-communication model. Theorem 1
    is {e not} claimed for this variant.

    [fault_tolerant] (default [false]) enables the crash-tolerant
    variant: every acting robot heart-beats on the (conceptual) root
    whiteboard, and a robot silent for more than [suspect_after]
    (default [4]) rounds is presumed lost — its anchor is released so
    survivors re-cover its subtree, and termination stops waiting for
    it. A later surviving heartbeat (crash-with-restart, or a false
    positive) revives the robot. [drop] (default: never; pass
    [Bfdn_faults.Fault_plan.drops_write]) models lossy whiteboard
    writes: dropped beats delay detection but never make it unsound.
    The probe's [on_robot_lost]/[on_robot_revived] hooks fire at each
    transition. Theorem 1 is {e not} claimed under faults; the property
    kept (and tested) is that exploration completes whenever at least
    one robot survives. *)

val algo : t -> Bfdn_sim.Runner.algo
(** Runner hook. [finished] is "tree explored and all robots at the root"
    (under break-down masks, compose with {!Bfdn_sim.Env.fully_explored}
    instead, since blocked robots may never return). With
    [fault_tolerant], robots presumed lost are exempted from the
    all-at-root condition, and the algo is named ["bfdn-ft"]. *)

(** {2 Instrumentation} *)

val anchors : t -> int array
(** Current anchor of every robot. *)

val reanchors_at_depth : t -> int -> int
(** Number of [Reanchor] calls that returned an anchor at this depth so
    far — the quantity bounded by Lemma 2. *)

val reanchors_total : t -> int

val fault_tolerant : t -> bool

val robots_lost : t -> int
(** Loss declarations so far ([0] unless [fault_tolerant]). A robot
    buried, revived and buried again counts twice. *)

val robots_revived : t -> int

val presumed_lost : t -> int array
(** Robots currently buried, in increasing id order. *)

val check_claim4 : t -> bool
(** Claim 4: every open node of the discovered tree lies in the subtree of
    some robot's anchor. O(open · k · D); for tests. *)
