(** The fault-injection parameter schema and its compiler.

    Fault schedules ride the scenario wire format as one more {!Param}
    binding list (the optional ["faults"] member of a spec), so they get
    the same validation, canonicalization, listing and JSON round-trip
    as algorithm and world parameters — and a batch job with faults is
    replayable evidence like any other. This module owns the schema and
    compiles bindings into a {!Bfdn_faults.Fault_plan.t}; the plan layer
    itself stays [Param]-free (it sits below this library in the
    dependency order).

    Parameters:
    - [crashes] (string, [""]): explicit schedule,
      ["ROBOT@ROUND"] or ["ROBOT@ROUND+AFTER"] comma-separated — e.g.
      ["2@10,5@40+30"] crashes robot 2 permanently at round 10 and robot
      5 at round 40 with a replacement at the root 30 rounds later.
      Mutually exclusive with [rate].
    - [rate] (float, [0.0]): random mode — each robot independently
      crashes with this probability, at a round uniform in
      [\[1, window\]].
    - [window] (int, [64]): crash-round window for random mode.
    - [restart] (int, [-1]): restart delay for random-mode crashes;
      [-1] = permanent.
    - [drops] (float, [0.0]): whiteboard write-drop probability.
    - [mask] (string, ["none"]): per-round move mask —
      ["none"], ["rotating"] (robot blocked when
      [(round + robot) mod mask_m = 0]), ["random"] (blocked with
      probability [mask_p]), ["half"] (upper half of the fleet
      permanently blocked), ["solo"] (all but robot 0 blocked).
    - [mask_m] (int, [3]), [mask_p] (float, [0.5]): mask knobs. *)

val schema : Param.spec list

val validate : ?k:int -> Param.binding list -> (unit, string) result
(** Schema check (the ranges are the schema's [accepts]) plus what it
    cannot express: the [crashes] syntax, [crashes]/[rate] exclusivity
    and [drops < 1]; with [k], crash robot ids are also range-checked. *)

val plan :
  rng:Bfdn_util.Rng.t -> k:int -> Param.binding list ->
  Bfdn_faults.Fault_plan.t option
(** Compile bindings into a plan, [None] when they describe no fault at
    all ([[]] and all-default bindings). [rng] is
    the scenario's dedicated fault stream ([Rng.split] index 2 of the
    root seed): random-mode crash draws and the plan's coin seed come
    from it, so the same spec always compiles to the same plan — in the
    main run, in an adversarial replay and in every engine worker.
    @raise Invalid_argument when {!validate} would fail (callers
    validate first). *)
