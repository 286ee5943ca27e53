(** Compile a {!Fault_plan} into the simulator's fault hook.

    The hook is a record of pure predicates over the plan — no cursor,
    no mutable schedule — so injection is deterministic under any
    interleaving: the engine's sharded replay produces identical traces
    for any worker count (asserted by the faults test-suite). Metrics
    are derived arithmetically from the plan after the run rather than
    counted during it, keeping the injected path allocation-free. *)

val hook : Fault_plan.t -> Bfdn_sim.Env.fault_hook
(** An enabled hook backed by the plan's predicates. For a {!Fault_plan.quiet}
    plan this returns {!Bfdn_sim.Env.fault_noop} instead, so "faults
    configured but empty" costs exactly as much as no faults at all. *)

val hook_opt : Fault_plan.t option -> Bfdn_sim.Env.fault_hook
(** [hook] through an option; [None] is {!Bfdn_sim.Env.fault_noop}. *)
