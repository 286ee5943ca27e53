(* An entry-counted {!Bfdn_util.Lru}: every body weighs 1, so the budget
   is the capacity. *)

module Lru = Bfdn_util.Lru

type t = string Lru.t

let create ~cap =
  if cap < 0 then invalid_arg "Result_cache.create: cap must be >= 0";
  Lru.create ~budget:cap ~weight:(fun _ -> 1)

let cap = Lru.budget
let find = Lru.find
let put = Lru.put
let mem = Lru.mem
let length = Lru.length
let keys_mru = Lru.keys_mru

type stats = { hits : int; misses : int; evictions : int; size : int }

let stats t =
  let s = Lru.stats t in
  {
    hits = s.Lru.hits;
    misses = s.Lru.misses;
    evictions = s.Lru.evictions;
    size = s.Lru.entries;
  }
