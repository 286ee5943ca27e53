(** BFDN in the continuous-time model ({!Bfdn_sim.Async_env}) — the
    slotted-time relaxation the paper's Remark 8 proposes as an extension.

    The rules are Algorithm 1's, re-read event-by-event: a robot asked at
    the root is re-anchored to a least-loaded minimum-depth open node and
    walks there; elsewhere it crosses an adjacent unclaimed dangling edge
    if one exists and heads up otherwise. In-transit discoveries are
    {e claimed}, which plays the role of the same-round "selected" set.

    No runtime guarantee is claimed (none exists in the paper); the
    experiments measure makespan against the work lower bound
    [2(n-1) / Σ speeds] and the depth bound [2D / max speed]. *)

type t

val make : Bfdn_sim.Async_env.t -> t

val decide : t -> Bfdn_sim.Async_env.decide
(** To be passed to {!Bfdn_sim.Exec_env.of_async}. *)

val notify_restart : t -> Bfdn_sim.Async_env.robot -> unit
(** Discard the robot's route state after a crash-with-restart teleport
    to the root (to be passed as [on_restart] to
    {!Bfdn_sim.Exec_env.of_async}): the stale stack described a walk
    from the crash site, not from the root. *)

