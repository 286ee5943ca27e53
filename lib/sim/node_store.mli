(** One paged struct-of-arrays keyed by node id.

    Every per-node attribute of a run — the lazy world's promise table,
    the discovered tree's bookkeeping, the environment's scratch and the
    algorithm's scratch — is a {e column} of one store. Columns are packed:
    int32 entries for ids, counts, ports and pool offsets, one byte for
    flags. They live in [Bytes] pages of {!page_size} entries, so growing
    the id space adds a page to every column and never copies: a store
    holds at most one page of slack past its highest backed id. A store
    whose capacity is below one page gets a single page sized to the
    capacity, so small worlds pay for their own node count only.

    The world and the view share the [parent] and [depth] columns: a
    lazily materialized world writes them at promise time and the
    discovered tree reads them, so each is stored once per run.

    A column is its page directory, exposed so that hot loops can inline
    an access: dune's default profile compiles every unit [-opaque], so a
    call to {!get} is never inlined across modules. Such a loop reads
    entry [i] as
    [get32u (Array.unsafe_get c (i lsr 16)) ((i land 0xffff) lsl 2)]
    (a flag: byte [i land 0xffff] of the page). Neither step is bounds
    checked: callers index only ids below [bound].

    {b Pages are recycled per domain.} Every page a store or vector
    takes ({!create}, {!column}, {!flags}, {!vector}, {!ensure},
    {!reserve}) comes from the calling domain's pool when the pool holds
    a page of that byte length, refilled with the column's fill (vector
    pages with [0]); otherwise it is freshly allocated. The pool is fed
    by {!release} and holds the pages of at most one store: releasing a
    store replaces what it held, so it never keeps more than one run
    already kept, and it dies with its domain.

    {b Ownership.} A store belongs to whoever created it, and its
    columns and vectors to the store. Only the owner may {!release} it,
    and only once nothing reads it any more: after the release its pages
    back another store of the same domain. The environment that created
    a run's store releases it when the run ends ([Env.release], called
    by the scenario layer's one execution step); a lazy world's store,
    shared with its view, is never released and is left to the GC. *)

type col = private Bytes.t array
(** A column's page directory, one slot per page of the capacity; slots
    past [bound] hold an empty page. *)

(** A paged int32 sequence not keyed by node id (the port pool), read
    like a column through [pages]. *)
type vector = private {
  mutable pages : Bytes.t array;
  mutable backed : int;  (** entries [0 .. backed-1] exist *)
}

type t = private {
  capacity : int;
  mutable bound : int;
      (** every column backs the ids [0 .. bound-1]; it only grows until
          {!release} sets it to [0] *)
  mutable cols : layout list;
  mutable vectors : vector list;  (** the store's vectors, for {!release} *)
  parent : col;
      (** parent id, [-1] where unset (the root). Shared by a lazy world,
          which writes its promised — still hidden — nodes here, and the
          view: algorithms read parents through {!Partial_tree} only. *)
  depth : col;  (** depth, [-1] where unset; shared like [parent] *)
}

and layout
(** How a column's pages are made, for growth. *)

val page_bits : int
(** log2 of {!page_size}: 16. *)

val page_size : int
(** Entries per page: 2^16. *)

val max_ids : int
(** Largest store capacity: 2^30 node ids. Ids, depths and port counts
    are int32, and a fully explored tree of [n] nodes holds [2(n-1)]
    ports, so port-pool offsets stay in the int32 range too. *)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

val create : capacity:int -> t
(** A store for node ids [0 .. capacity-1], backing the first page.
    @raise Invalid_argument unless [1 <= capacity <= max_ids]. *)

val ensure : t -> int -> unit
(** [ensure t v] backs id [v] in every column, adding whole pages.
    @raise Invalid_argument if [v] is negative or at or past the
    capacity, or the store is released. *)

val column : t -> fill:int -> col
(** Register a new int32 column, every entry [fill] ([0] or [-1]). It
    grows with the store from then on.
    @raise Invalid_argument on a released store. *)

val flags : t -> col
(** Register a new byte column of flags, all clear ([0]).
    @raise Invalid_argument on a released store. *)

val get : col -> int -> int
val set : col -> int -> int -> unit

(** {2 Vectors} *)

val vector : t -> hint:int -> vector
(** An empty vector of the store, entries [0]; {!release} hands its pages
    back with the columns'. Its first page is cut to [hint] entries when
    [hint] is below one page; should it outgrow the hint, that page is
    widened to a whole page once (the only copy a store ever makes).
    @raise Invalid_argument on a released store. *)

val reserve : vector -> int -> unit
(** [reserve v len] backs entries [0 .. len-1].
    @raise Invalid_argument at 2^31 entries. *)

(** {2 Recycling} *)

val release : t -> unit
(** Hand every page of the store's columns and vectors to the calling
    domain's pool, replacing the pages it held, and set [bound] to [0]:
    {!ensure}, {!column}, {!flags} and {!vector} then raise, and so does
    every [Partial_tree] accessor that checks its node. The directories
    still point at the pages, so a stray unchecked access reads memory
    another store now owns, never freed memory. Idempotent. Legal only
    for the store's owner, once nothing reads the store any more. *)

type page_stats = { reused : int; allocated : int }
(** Pages taken from a pool, and pages freshly allocated, summed over
    every domain since the process started. *)

val page_stats : unit -> page_stats
