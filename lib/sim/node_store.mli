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
    checked: callers index only ids below [bound]. *)

type col = private Bytes.t array
(** A column's page directory, one slot per page of the capacity; slots
    past [bound] hold an empty page. *)

type t = private {
  capacity : int;
  mutable bound : int;
      (** every column backs the ids [0 .. bound-1]; it only ever grows *)
  mutable cols : layout list;
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
    capacity. *)

val column : t -> fill:int -> col
(** Register a new int32 column, every entry [fill] ([0] or [-1]). It
    grows with the store from then on. *)

val flags : t -> col
(** Register a new byte column of flags, all clear ([0]). *)

val get : col -> int -> int
val set : col -> int -> int -> unit

(** {2 Vectors} *)

type vector = private {
  mutable pages : Bytes.t array;
  mutable backed : int;  (** entries [0 .. backed-1] exist *)
}
(** A paged int32 sequence not keyed by node id (the port pool), read
    like a column through [pages]. *)

val vector : hint:int -> vector
(** An empty vector, entries [0]. Its first page is cut to [hint] entries
    when [hint] is below one page; should it outgrow the hint, that page
    is widened to a whole page once (the only copy a store ever makes). *)

val reserve : vector -> int -> unit
(** [reserve v len] backs entries [0 .. len-1].
    @raise Invalid_argument at 2^31 entries. *)
