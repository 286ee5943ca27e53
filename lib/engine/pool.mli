(** Domain-based worker pool for the server.

    A fixed set of worker domains drains a FIFO task queue. Tasks are
    [unit -> unit] thunks; a raising task is contained (the exception is
    swallowed at the worker loop) so one bad task can never take a worker
    — let alone the pool — down. The server's only task, [Server.exec],
    contains its own errors: a failed job settles as an error response
    and a postmortem bundle. Batches do not use this pool: {!Batch.map}
    runs on the calling domain and helper domains of its own.

    The pool is safe to drive from the spawning domain only ([submit]
    and [shutdown] are not re-entrant from worker tasks). *)

type t

val max_workers : int
(** [127]: the most worker domains {!create} can spawn, and the most
    workers {!Batch.map} runs (its caller plus 126 helpers). The OCaml
    5.1 runtime runs at most 128 domains at once, and the spawning domain
    is one of them. *)

val create : ?probe:Bfdn_obs.Probe.t -> ?workers:int -> unit -> t
(** Spawn the worker domains. [workers] defaults to
    [Domain.recommended_domain_count ()] and is clamped to
    [[1, max_workers]].
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
    causes the pool to drop the task unrun.
    @raise Invalid_argument after {!shutdown}. *)

val shutdown : t -> unit
(** Wait until every submitted task has finished, then stop and join
    every worker domain. Idempotent. *)
