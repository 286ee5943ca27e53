(** Terminal rendering of mixed observability JSONL streams — the
    trace frames, span records, log lines, lane rows and status lines
    the CLI and the serve layer emit — behind [explore tail]. Builds on
    the ASCII dashboard renderer ({!Bfdn_util.Ascii}) for the aggregate
    charts. *)

val render_line : Json.t -> string
(** One aligned text line (no trailing newline) for any record kind,
    with a span's or log line's [attrs] as [key=value] pairs; unknown
    records render as compact JSON. *)

val span_timeline : ?width:int -> Json.t list -> string
(** An ASCII timeline of flat span records (the {!Span} sink JSONL
    form): one row per span in start order, indented by tree depth,
    with a bar positioned and scaled on a [width]-column (default 48)
    axis spanning the whole trace, plus a total-duration bar chart per
    span name. [""] when no span records are given. *)
