(** Where observations go: the one JSONL record envelope, a bounded
    ring recorder, JSONL streaming and an ASCII dashboard. *)

(** An observability record's kind. Every JSONL line the system writes
    — span sink records, log lines, trace frames, a batched stream's
    lane rows and its closing status line — is built by {!record}. *)
type kind = Span | Log | Frame | Row | Status

val record : kind -> (string * Json.t) list -> Json.t
(** [{"kind": "span" | "log" | "frame" | "row" | "status", members...}]:
    the kind first, then [members] in order. *)

val kind_of : Json.t -> kind option
(** The kind a {!record} carries; [None] for any other JSON value. *)

(** Bounded ring buffer: pushing past capacity overwrites the oldest
    element, so a producer (a round loop) is never blocked and memory
    stays O(capacity) however long the run. Backs {!Bfdn_sim.Trace} and
    the serve layer's per-job frame buffer.

    All operations are mutex-guarded and safe across domains and
    threads. Readers either snapshot the retained elements ({!last},
    {!to_list}) or follow the ring with a {!cursor}: reading never
    consumes, so any number of readers see the same elements. *)
module Ring : sig
  type 'a t

  val create : int -> 'a t
  (** @raise Invalid_argument when capacity < 1. *)

  val capacity : 'a t -> int

  val push : 'a t -> 'a -> unit
  (** Never blocks: overwrites the oldest element when full; a no-op
      after {!close}. *)

  val close : 'a t -> unit
  (** Wakes every reader blocked in {!next}; further pushes are
      dropped. Idempotent. *)

  val length : 'a t -> int
  (** Elements currently retained ([min pushed capacity]). *)

  val pushed : 'a t -> int
  (** Total elements ever pushed. *)

  val dropped : 'a t -> int
  (** [pushed - length]: elements overwritten so far. *)

  val last : 'a t -> int -> 'a list
  (** The newest [n] retained elements, oldest first. *)

  val to_list : 'a t -> 'a list
  (** Every retained element, oldest first. *)

  type cursor
  (** One reader's position in a ring. *)

  val cursor : 'a t -> cursor
  (** A fresh cursor at the oldest retained element. *)

  val next : 'a t -> cursor -> 'a option
  (** The element at the cursor, advancing it. Blocks until one is
      pushed or the ring is closed; [None] means closed and fully read.
      A cursor that fell behind past capacity resumes at the oldest
      element still retained. *)
end

val write_jsonl : out_channel -> Json.t -> unit
(** One compact JSON value plus a newline — the JSONL framing used by
    [explore run --trace]. The caller owns flushing/closing. *)

val dashboard : ?title:string -> Metrics.t -> string
(** {!Metrics.render} framed with a title rule, for end-of-run terminal
    summaries. *)
