(** GC pause observation with an allocation-free record path.

    OCaml exposes no direct pause-duration hook (and [Gc.Memprof] is a
    sampling profiler, not a pause meter), so the probe combines a
    [Gc.create_alarm] callback — fired by the runtime at the end of each
    major collection cycle — with a host-driven {!tick} called at the
    workload's natural cadence (per exploration round, per HTTP
    request). A tick whose interval saw a major-cycle end records the
    interval length into a [gc_pause_ns] histogram: an upper bound
    on the pause, and at round granularity exactly the round-stall
    number the huge scale tier reports.

    Used by the E19 huge-scale benchmark (ticked from the runner's
    round hook) and by the scenario server's [/metrics] endpoint. *)

type t

val create : Metrics.t -> t
(** Install the major-cycle alarm and register [gc_pause_ns]
    (histogram, nanosecond ladder mirroring {!Metrics.latency_bounds})
    and [gc_major_cycles] (counter) in the registry. Call {!dispose}
    when done: the alarm otherwise outlives the probe. *)

val tick : t -> unit
(** Advance the interval clock; record the elapsed interval as a pause
    if at least one major cycle ended inside it. Two monotonic clock
    reads, int compares and one {!Metrics.observe_int} — no allocation,
    safe to call every round. *)

val major_cycles : t -> int
(** Major cycles ended since {!create}, including any not yet folded
    into the counter by a tick. *)

val snapshot : t -> unit
(** Export end-of-run totals from [Gc.quick_stat] as gauges
    ([gc_minor_collections], [gc_major_collections], [gc_compactions],
    [gc_heap_words], [gc_top_heap_words], [gc_minor_words]) into the
    registry {!create} was given. Allocates — for
    run boundaries, not the round loop. *)

val alarm_active : t -> bool
(** Whether the runtime alarm is still installed (false after
    {!dispose}). *)

val dispose : t -> unit
(** Delete the runtime alarm. Idempotent. *)
