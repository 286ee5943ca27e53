(** Prometheus text exposition (format 0.0.4) for a {!Metrics}
    registry, plus a pure-OCaml validator of the format used by the
    tests and CI against the live [/metrics?format=prometheus]
    endpoint.

    Rendering: counters and gauges one sample each; histograms as
    cumulative [<name>_bucket{le="..."}] series ending at [+Inf],
    [<name>_sum] and [<name>_count], plus [_p50]/[_p90]/[_p99]
    quantile-estimate gauges from {!Metrics.quantile}. Metric names
    are prefixed with [bfdn_]. *)

val content_type : string
(** The exposition content type, ["text/plain; version=0.0.4"]. *)

val render : Metrics.t -> string
(** The registry in exposition format, metrics in registration order,
    one [# TYPE] comment per family. *)

val validate : string -> (unit, string) result
(** Check a full exposition body: line syntax (metric-name and label
    grammar, quoted label values with backslash/quote/newline escapes,
    float sample
    values including [+Inf]/[-Inf]/[NaN]), [# TYPE] lines well-formed,
    unique, and preceding their family's samples; families contiguous
    (no interleaving); and for each declared histogram: every
    [_bucket] sample carries [le], the [le] values are increasing, the
    bucket counts are cumulative (non-decreasing), the [+Inf] bucket
    is present and agrees with [<name>_count]. Errors carry the
    1-based line number. *)
