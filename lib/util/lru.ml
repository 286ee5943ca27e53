(* Hashtable + doubly-linked recency list, behind one mutex. [mru] is the
   most-recently-used entry, [lru] the eviction candidate. A node carries
   its own [Some] ([self]), so relinking allocates nothing. *)

type 'a node = {
  key : string;
  value : 'a;
  weight : int;
  self : 'a node option;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  budget : int;
  weight_of : 'a -> int;
  tbl : (string, 'a node) Hashtbl.t;
  mutable mru : 'a node option;
  mutable lru : 'a node option;
  mutable total : int;
  m : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~budget ~weight =
  if budget < 0 then invalid_arg "Lru.create: budget must be >= 0";
  {
    budget;
    weight_of = weight;
    tbl = Hashtbl.create 16;
    mru = None;
    lru = None;
    total = 0;
    m = Mutex.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let budget t = t.budget

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.mru <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> t.lru <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.mru;
  (match t.mru with Some h -> h.prev <- n.self | None -> t.lru <- n.self);
  t.mru <- n.self

let promote t n =
  unlink t n;
  push_front t n

let remove t n =
  unlink t n;
  Hashtbl.remove t.tbl n.key;
  t.total <- t.total - n.weight

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some n ->
          t.hits <- t.hits + 1;
          promote t n;
          Some n.value
      | None ->
          t.misses <- t.misses + 1;
          None)

let insert t ~replace key value =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some n when not replace ->
          promote t n;
          n.value
      | found ->
          Option.iter (remove t) found;
          let weight = t.weight_of value in
          if weight <= t.budget then begin
            let rec n =
              { key; value; weight; self = Some n; prev = None; next = None }
            in
            Hashtbl.replace t.tbl key n;
            push_front t n;
            t.total <- t.total + weight;
            (* the new entry fits, so eviction stops before reaching it *)
            while t.total > t.budget do
              Option.iter (remove t) t.lru;
              t.evictions <- t.evictions + 1
            done
          end;
          value)

let put t key value = ignore (insert t ~replace:true key value)
let add t key value = insert t ~replace:false key value
let mem t key = locked t (fun () -> Hashtbl.mem t.tbl key)
let length t = locked t (fun () -> Hashtbl.length t.tbl)

let keys_mru t =
  locked t (fun () ->
      let rec collect acc = function
        | None -> acc
        | Some n -> collect (n.key :: acc) n.prev
      in
      collect [] t.lru)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  weight : int;
}

let stats (t : _ t) =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.tbl;
        weight = t.total;
      })
