(** Hierarchical span tracing with correlation IDs.

    A recorder holds the spans of one traced unit of work (one HTTP
    request / job in the serve layer), identified by a correlation
    [trace_id] minted at the edge. Spans form a tree via parent ids;
    each carries a name, a start offset and duration in monotonic
    nanoseconds ({!Bfdn_util.Clock}), and a small list of JSON
    attributes. Completed spans are streamed as JSONL records
    ({!Sink.record}, kind [span]) to an optional sink; the recorder
    itself is a bounded buffer (excess spans are counted in {!dropped},
    never silently lost from the accounting).

    The PR 3 discipline applies: {!disabled} is a recorder whose every
    operation is a no-op behind a single [enabled] branch, so
    instrumentation points cost nothing when tracing is off — the E16
    hot path stays within its 1% budget (enforced by the E20 rows of
    the perf gate).

    All operations are mutex-guarded: a recorder is shared between the
    connection thread that minted it and the worker domain executing
    the job. Operations are boundary-frequency (per request, per job),
    never per-round. *)

type id = int
(** Span identifier, unique within one recorder. {!none} (= [-1]) is
    returned by {!start} on a disabled or full recorder; every
    operation on it is a no-op, so call sites never branch. *)

val none : id

type t

val disabled : t
(** The no-op recorder: {!start} returns {!none}, nothing is stored or
    emitted. *)

val create :
  ?capacity:int -> ?sink:(Json.t -> unit) -> trace_id:string -> unit -> t
(** An enabled recorder. [capacity] (default 256) bounds stored spans;
    [sink] receives one flat record per {!finish}ed span:
    [{kind: "span", trace, span, parent, name, start_ns, dur_ns,
    attrs?}] (JSONL framing is the caller's, e.g. {!Sink.write_jsonl}).
    @raise Invalid_argument when [capacity < 1]. *)

val enabled : t -> bool
val trace_id : t -> string
(** [""] for {!disabled}. *)

val start : ?parent:id -> t -> string -> id
(** Open a span at the current monotonic clock. [parent] defaults to
    {!none} (a root span). Returns {!none} when the recorder is
    disabled or full (then counted in {!dropped}). *)

val finish : ?dur_ns:int -> ?attrs:(string * Json.t) list -> t -> id -> unit
(** Close a span: fix its duration ([dur_ns] when given, else the time
    elapsed since {!start}), attach [attrs], emit it to the sink.
    [dur_ns] is for spans whose time was measured elsewhere, e.g. a
    phase total summed over every round of a run. Idempotent; no-op on
    {!none}. *)

val length : t -> int
(** Spans started (and retained) so far. *)

val dropped : t -> int
(** Spans refused because the recorder was full. *)

val tree_json : t -> Json.t
(** The span tree:
    [{trace, dropped, spans: [{id, name, start_ns, dur_ns, attrs,
    children} ...]}] with [spans] the root spans, [start_ns] relative
    to the recorder's creation. Spans still open are included with
    their duration so far and ["open": true]. *)
