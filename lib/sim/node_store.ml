(* One paged struct-of-arrays keyed by node id. A column is a directory of
   [Bytes] pages of [page_size] entries (4 bytes per int32 entry, 1 per
   flag), sized once for the store's capacity; its unbacked slots alias
   the empty byte sequence. Growth puts fresh pages into every directory,
   so nothing is ever copied and a column holds at most one page of
   slack. The last page is cut to the capacity, which gives a world
   smaller than one page exactly one page of its own size.

   Pages are ordinary heap blocks: the marker does not scan their
   contents, and [Obj.reachable_words] counts them. Every page is taken
   from the calling domain's pool (below), which holds the pages of the
   last store released on that domain. *)

let page_bits = 16
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let max_ids = 1 lsl 30

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

type col = Bytes.t array

(* How to make a column's pages: bytes per entry, and the byte pattern
   of a fresh entry ('\000' = 0, '\255' = -1 for int32 entries). *)
type layout = { col : col; width : int; fill : char }

type vector = { mutable pages : Bytes.t array; mutable backed : int }

type t = {
  capacity : int;
  mutable bound : int;
      (* ids [0, bound) are backed in every column; 0 once released *)
  mutable cols : layout list;
  mutable vectors : vector list;
  parent : col;
  depth : col;
}

(* ---- the page pool ----

   Each domain keeps the pages of the last store released on it, keyed
   by byte length, and hands them to the next store that asks for a page
   of that length. Releasing a store replaces whatever the pool held, so
   a pool never holds more than one run already held; it dies with its
   domain. The mutex covers systhreads sharing a domain; the counters are
   process-wide. *)

type pool = { lock : Mutex.t; free : (int, Bytes.t list) Hashtbl.t }

let pool_key =
  Domain.DLS.new_key (fun () ->
      { lock = Mutex.create (); free = Hashtbl.create 16 })

let reused_pages = Atomic.make 0
let allocated_pages = Atomic.make 0

type page_stats = { reused : int; allocated : int }

let page_stats () =
  { reused = Atomic.get reused_pages; allocated = Atomic.get allocated_pages }

(* A page of [len] bytes, every byte [fill]. *)
let take len fill =
  let pool = Domain.DLS.get pool_key in
  let recycled =
    Mutex.protect pool.lock (fun () ->
        match Hashtbl.find_opt pool.free len with
        | Some [ page ] ->
            Hashtbl.remove pool.free len;
            Some page
        | Some (page :: rest) ->
            Hashtbl.replace pool.free len rest;
            Some page
        | Some [] | None -> None)
  in
  match recycled with
  | Some page ->
      Atomic.incr reused_pages;
      Bytes.fill page 0 len fill;
      page
  | None ->
      Atomic.incr allocated_pages;
      Bytes.make len fill

let released name = invalid_arg (name ^ ": released store")

let pages_for n = (n + page_size - 1) lsr page_bits

(* Back pages [from, upto) of one column. *)
let fill_pages ~capacity l ~from ~upto =
  for j = from to upto - 1 do
    let len = min page_size (capacity - (j * page_size)) in
    l.col.(j) <- take (len * l.width) l.fill
  done

let layout ~capacity ~bound ~width ~fill =
  let fill =
    match fill with
    | 0 -> '\000'
    | -1 -> '\255'
    | _ -> invalid_arg "Node_store: a column fill is 0 or -1"
  in
  let l = { col = Array.make (pages_for capacity) Bytes.empty; width; fill } in
  fill_pages ~capacity l ~from:0 ~upto:(pages_for bound);
  l

let create ~capacity =
  if capacity < 1 || capacity > max_ids then
    invalid_arg
      (Printf.sprintf "Node_store.create: capacity %d outside [1, %d]" capacity
         max_ids);
  let bound = min capacity page_size in
  let parent = layout ~capacity ~bound ~width:4 ~fill:(-1) in
  let depth = layout ~capacity ~bound ~width:4 ~fill:(-1) in
  {
    capacity;
    bound;
    cols = [ parent; depth ];
    vectors = [];
    parent = parent.col;
    depth = depth.col;
  }

let ensure t v =
  if v < 0 || v >= t.bound then begin
    if t.bound = 0 then released "Node_store.ensure";
    if v < 0 || v >= t.capacity then
      invalid_arg
        (Printf.sprintf "Node_store.ensure: id %d beyond capacity %d" v
           t.capacity);
    let from = pages_for t.bound and upto = (v lsr page_bits) + 1 in
    List.iter (fun l -> fill_pages ~capacity:t.capacity l ~from ~upto) t.cols;
    t.bound <- min t.capacity (upto lsl page_bits)
  end

let register t ~width ~fill =
  if t.bound = 0 then released "Node_store.column";
  let l = layout ~capacity:t.capacity ~bound:t.bound ~width ~fill in
  t.cols <- l :: t.cols;
  l.col

let column t ~fill = register t ~width:4 ~fill
let flags t = register t ~width:1 ~fill:0

let get c i =
  Int32.to_int (get32u c.(i lsr page_bits) ((i land page_mask) lsl 2))

let set c i v =
  set32u c.(i lsr page_bits) ((i land page_mask) lsl 2) (Int32.of_int v)

(* The round loop's access: [get] and [set] without the directory's
   bounds check. A vector's pages are a directory too. *)
let[@inline] unsafe_get c i =
  let page = Array.unsafe_get c (i lsr page_bits) in
  Int32.to_int (get32u page ((i land page_mask) lsl 2))

let[@inline] unsafe_set c i v =
  let page = Array.unsafe_get c (i lsr page_bits) in
  set32u page ((i land page_mask) lsl 2) (Int32.of_int v)

let[@inline] unsafe_get_flag c i =
  let page = Array.unsafe_get c (i lsr page_bits) in
  Bytes.unsafe_get page (i land page_mask) <> '\000'

let[@inline] unsafe_set_flag c i =
  let page = Array.unsafe_get c (i lsr page_bits) in
  Bytes.unsafe_set page (i land page_mask) '\001'

let[@inline] unsafe_vget v i = unsafe_get v.pages i
let[@inline] unsafe_vset v i x = unsafe_set v.pages i x

(* ---- vectors: paged int32 sequences not keyed by node id ---- *)

let vector t ~hint =
  if t.bound = 0 then released "Node_store.vector";
  let len = min page_size (max 1 hint) in
  let v = { pages = [| take (len * 4) '\000' |]; backed = len } in
  t.vectors <- v :: t.vectors;
  v

(* Pool offsets are int32 entries, so a vector stays below 2^31 entries.
   A first page cut to its hint is widened to a whole page once, should
   the hint prove short (never for the port pool of a real tree). *)
let reserve v len =
  if len > 1 lsl 31 then invalid_arg "Node_store.reserve: past the int32 range";
  while v.backed < len do
    let n = Array.length v.pages in
    let last = v.pages.(n - 1) in
    if Bytes.length last < page_size * 4 then begin
      let page = take (page_size * 4) '\000' in
      Bytes.blit last 0 page 0 (Bytes.length last);
      v.pages.(n - 1) <- page
    end
    else v.pages <- Array.append v.pages [| take (page_size * 4) '\000' |];
    v.backed <- Array.length v.pages * page_size
  done

(* The directories keep pointing at the released pages, so an access that
   ignores [bound] still reads valid memory; every checked path sees
   [bound = 0]. *)
let release t =
  if t.bound > 0 then begin
    let held = pages_for t.bound in
    t.bound <- 0;
    let pool = Domain.DLS.get pool_key in
    let give page =
      let len = Bytes.length page in
      let rest = Option.value ~default:[] (Hashtbl.find_opt pool.free len) in
      Hashtbl.replace pool.free len (page :: rest)
    in
    Mutex.protect pool.lock (fun () ->
        Hashtbl.clear pool.free;
        List.iter
          (fun l -> for j = 0 to held - 1 do give l.col.(j) done)
          t.cols;
        List.iter (fun v -> Array.iter give v.pages) t.vectors)
  end
