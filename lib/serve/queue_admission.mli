(** Bounded admission in front of the engine's Domain pool.

    Tracks every admitted job from [Queued] through a terminal state,
    enforces the in-flight bound (queued + running) that produces the
    service's 429 backpressure, lets connection threads block until a
    job settles, and coordinates the graceful drain: once draining, no
    job is admitted and {!await_idle} returns when the last in-flight
    job has settled.

    All state is mutex-guarded; transitions broadcast a condition, so
    any number of waiters (one per watching connection) may block on the
    same job. Terminal jobs are pruned oldest-first past a retention
    bound, so a long-lived server's job table stays O(bound). *)

type state =
  | Queued
  | Running
  | Done of string  (** the canonical result JSON body *)
  | Failed of string
  | Timeout
  | Cancelled

val state_name : state -> string
(** ["queued"], ["running"], ["done"], ["failed"], ["timeout"],
    ["cancelled"]. *)

(** One element of a job's stream. *)
type event =
  | Frame of Bfdn_sim.Trace.frame
      (** one executed round; readers render it with
          {!Bfdn_sim.Trace.json_of_frame} *)
  | Row of Bfdn_obs.Json.t
      (** one lane's row record of a batched spec
          ({!Bfdn_obs.Sink.record}, kind [row]) *)

type job = {
  id : int;
  spec : Bfdn_scenario.Scenario.t;
  fingerprint : string;
  timeout_s : float;
  stream : event Bfdn_obs.Sink.Ring.t;
      (** the run's trace frames (lane rows for a batched spec), the
          newest 1024 retained; written only by the executing worker,
          closed at {!settle}. Frames stay typed in the ring (k+8
          words at k robots, against 5k+34 for their JSON tree) and
          are rendered when read. Readers follow it by cursor without
          consuming, so [GET /jobs/:id/stream] readers and the
          postmortem bundle all see the same frames. *)
  token : Bfdn_engine.Pool.token;
  trace : string;  (** correlation id minted at the HTTP edge *)
  span : Bfdn_obs.Span.t;
      (** the request's span recorder ({!Bfdn_obs.Span.disabled} when
          tracing is off) — serves [GET /jobs/:id/spans] *)
  root_span : Bfdn_obs.Span.id;  (** the request root span *)
  queue_span : Bfdn_obs.Span.id;
      (** opened by {!admit}, closed by the executor at
          {!mark_running}: admission-to-execution latency *)
  mutable state : state;  (** read/written under the table's lock only *)
  mutable timed_out : bool;
      (** set (before cancelling the token) by the deadline check, so
          the executor can tell a timeout from an external cancel *)
  mutable postmortem : string option;
      (** path of the postmortem bundle, once the server wrote one *)
}

type t

val create : ?cap:int -> ?keep_terminal:int -> unit -> t
(** [cap] (default 64) bounds in-flight jobs; [keep_terminal] (default
    256) bounds retained settled jobs. @raise Invalid_argument when
    [cap < 1] or [keep_terminal < 0]. *)

val cap : t -> int

val admit :
  ?trace:string ->
  ?span:Bfdn_obs.Span.t ->
  ?parent:Bfdn_obs.Span.id ->
  t ->
  timeout_s:float ->
  fingerprint:string ->
  Bfdn_scenario.Scenario.t ->
  (job, [ `Full | `Draining ]) result
(** Register a fresh [Queued] job, or refuse: [`Full] is the 429 path
    (the caller never runs the job), [`Draining] the 503 path. [trace]
    (default [""]), [span] (default disabled) and [parent] thread the
    caller's correlation id and span recorder onto the job; admission
    opens the job's [queue] span under [parent]. *)

val find : t -> int -> job option

val mark_running : t -> job -> bool
(** Executor entry: [Queued → Running], recording the start. [false]
    when the job was cancelled while queued (the executor must skip
    it). *)

val settle : t -> job -> state -> unit
(** Transition to a terminal state, close the job's stream and wake
    every waiter. No-op if the job already settled (a drain-cancel and
    the executor can race). @raise Invalid_argument on a non-terminal
    argument. *)

val await : t -> job -> state
(** Block until the job settles; returns the terminal state. *)

val state : t -> job -> state

val inflight : t -> int
(** Jobs currently queued or running. *)

val retry_after_s : t -> int
(** Advisory [Retry-After] seconds for a 429: a crude half-timeout
    estimate, at least 1. *)

val drain : t -> unit
(** Stop admitting ([`Draining]) and cancel the tokens of still-queued
    jobs so the pool skips them; running jobs finish normally. *)

val draining : t -> bool

val await_idle : t -> unit
(** Block until no job is in flight (use after {!drain}). *)

val jobs_admitted : t -> int
(** Total jobs ever admitted. *)
