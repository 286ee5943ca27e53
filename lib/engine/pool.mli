(** Domain-based worker pool.

    A fixed set of worker domains drains a FIFO task queue. Tasks are
    [unit -> unit] thunks; a raising task is contained (the exception is
    swallowed at the worker loop) so one bad task can never take a worker
    — let alone the pool — down. Error reporting is the submitter's job:
    {!Batch} wraps every job so failures surface as per-job [Error]
    values.

    The pool is safe to drive from the spawning domain only ([submit],
    [join] and [shutdown] are not re-entrant from worker tasks). *)

type t

val create : ?probe:Bfdn_obs.Probe.t -> ?workers:int -> unit -> t
(** Spawn the worker domains. [workers] defaults to
    [Domain.recommended_domain_count ()] and is clamped to at least 1.
    Worker counts above the core count are legal (useful for determinism
    tests); they just time-share.

    An enabled [probe] receives [on_job ~worker ~wait_ns ~run_ns] after
    every task: queue wait (submit to dequeue) and execution time on the
    monotonic clock. The hook fires {e on the worker domain}, so it must
    be domain-safe — {!Bfdn_obs.Probe.pool_probe} writes to per-worker
    registries for exactly this reason. *)

val workers : t -> int
(** Number of worker domains actually spawned. *)

(** {2 Cancellation}

    A token is a domain-safe cancellation flag shared between a
    submitter and its task. Cancelling a token whose task is still
    queued makes the pool skip the task entirely when it is dequeued; a
    task already running observes cancellation cooperatively by calling
    {!check} at its own safe points (the serve layer does this from a
    per-round hook, which is what makes wall-clock timeouts cancel
    cleanly mid-run). *)

exception Cancelled
(** Raised by {!check}; contained by the worker loop like any other
    task exception. *)

type token

val token : unit -> token
(** A fresh, uncancelled token. *)

val cancel : token -> unit
(** Flip the flag (idempotent; callable from any domain). *)

val check : token -> unit
(** @raise Cancelled when the token has been cancelled. *)

val submit : ?token:token -> t -> (unit -> unit) -> unit
(** Enqueue a task. A [token] cancelled before the task is dequeued
    causes the pool to drop the task unrun (it still counts in
    {!executed} and unblocks {!join} as usual).
    @raise Invalid_argument after {!shutdown}. *)

val join : t -> unit
(** Block until every submitted task has finished (the queue is empty and
    no worker is mid-task). The pool stays usable for further [submit]s. *)

val shutdown : t -> unit
(** {!join}, then stop and join every worker domain. Idempotent. *)

val executed : t -> int array
(** Per-worker count of tasks completed so far (index = worker id). Call
    after {!join} for a consistent snapshot. *)
