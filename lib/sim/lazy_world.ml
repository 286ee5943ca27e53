module Tree = Bfdn_trees.Tree
module Tree_stats = Bfdn_trees.Tree_stats
module Mathx = Bfdn_util.Mathx

(* Lazily materialized generator worlds: the deterministic instance
   families of {!Bfdn_trees.Tree_gen}, produced node by node as the
   exploration reveals them instead of being built up front. Exploring a
   prefix of an n=10^7 world then costs O(explored) memory end to end
   (this module grows geometrically, {!Partial_tree}/{!Env}/the algorithm
   scratch follow {!Partial_tree.id_bound}).

   Mechanics follow {!Adversary}: child ids are allocated densely at the
   parent's reveal (promise time), before anything about the child's own
   subtree is decided, so the discovered tree never leaks hidden
   information. Because one reveal promises all children of a node at
   once, the children occupy consecutive ids and the per-node child table
   is just (first_kid, nkids) — no per-node heap block.

   Shapes are driven by a per-node [role] decided at promise time from
   the parent's role, so every family is exploration-order independent
   (the "random" family derives child counts from hash(seed, id), again
   order-independent; only its budget truncation tail can depend on
   reveal order, and it is a deterministic function of the exploration). *)

type family =
  | Path
  | Star
  | Complete of int (* arity; children iff depth < target depth *)
  | Spider of int * int (* legs, leg_len *)
  | Caterpillar of int * int (* spine, legs_per_node *)
  | Comb of int * int (* spine, tooth_len *)
  | Broom of int * int (* handle, bristles *)
  | Random of int (* seed *)

type t = {
  family : family;
  name : string; (* constructor arguments, for [materialize] *)
  req_n : int;
  req_depth_hint : int;
  req_seed : int;
  capacity : int; (* exact node count of the family instance *)
  target_depth : int; (* Complete only *)
  mutable parents : int array; (* -1 until promised *)
  mutable depths : int array;
  mutable role : int array; (* family-specific, set at promise time *)
  mutable first_kid : int array; (* -1 until revealed *)
  mutable nkids : int array; (* -1 until revealed *)
  mutable len : int; (* ids 0..len-1 are promised *)
  mutable next_id : int; (* = len; alias kept for clarity *)
  mutable max_depth : int;
  mutable max_degree : int;
  mutable revealed : int;
  acc : Tree_stats.Acc.acc; (* streaming stats over revealed nodes *)
}

(* SplitMix64-style finalizer over (seed, node id): a pure hash, so the
   "random" family's draws do not depend on exploration order. *)
let hash2 seed v =
  let z = seed lxor (v * 0x9E3779B97F4A7C1) in
  let z = (z lxor (z lsr 30)) * 0xBF58476D1CE4E5B in
  let z = (z lxor (z lsr 27)) * 0x94D049BB133111E in
  (z lxor (z lsr 31)) land max_int

let families = [ "path"; "star"; "binary"; "ternary"; "spider"; "caterpillar"; "comb"; "broom"; "random" ]

let supported name = List.mem name families

(* Size derivations mirror {!Tree_gen.of_family}, so [scale=lazy] and
   [scale=eager] runs of one spec describe the same instance shape. All
   arithmetic saturates: a nonsense huge parameter rejects cleanly. *)
let make ~family:name ~n ~depth_hint ~seed =
  let req_n = n and req_depth_hint = depth_hint in
  let n = max 1 n in
  let d = max 1 depth_hint in
  let family, capacity, target_depth =
    match name with
    | "path" -> (Path, n, 0)
    | "star" -> (Star, n, 0)
    | "binary" ->
        let depth = max 1 (Mathx.log2i (max 2 n)) in
        let cap =
          let top = Mathx.pow_cap 2 (depth + 1) in
          if top = max_int then max_int else top - 1
        in
        (Complete 2, cap, depth)
    | "ternary" ->
        let depth =
          let rec fit depth =
            if Mathx.pow_cap 3 (depth + 1) >= n then depth else fit (depth + 1)
          in
          max 1 (fit 1)
        in
        let cap =
          let top = Mathx.pow_cap 3 (depth + 1) in
          if top = max_int then max_int else (top - 1) / 2
        in
        (Complete 3, cap, depth)
    | "spider" ->
        let legs = max 1 (n / max 1 d) in
        (Spider (legs, d), Mathx.add_cap 1 (Mathx.mul_cap legs d), 0)
    | "caterpillar" ->
        let legs = max 1 ((n / max 1 d) - 1) in
        ( Caterpillar (d, legs),
          Mathx.mul_cap (d + 1) (Mathx.add_cap legs 1),
          0 )
    | "comb" ->
        let tooth = max 1 ((n / max 1 d) - 1) in
        ( Comb (d, tooth),
          Mathx.add_cap 1 (Mathx.mul_cap d (Mathx.add_cap tooth 1)),
          0 )
    | "broom" ->
        let bristles = max 1 (n - d - 1) in
        (Broom (d, bristles), Mathx.add_cap 1 (Mathx.add_cap d bristles), 0)
    | "random" -> (Random seed, n, 0)
    | other -> invalid_arg ("Lazy_world.make: unsupported family " ^ other)
  in
  if capacity > Sys.max_array_length then
    invalid_arg "Lazy_world.make: instance exceeds Sys.max_array_length";
  let cap0 = min capacity 1024 in
  let t =
    {
      family;
      name;
      req_n;
      req_depth_hint;
      req_seed = seed;
      capacity;
      target_depth;
      parents = Array.make cap0 (-1);
      depths = Array.make cap0 0;
      role = Array.make cap0 0;
      first_kid = Array.make cap0 (-1);
      nkids = Array.make cap0 (-1);
      len = 1;
      next_id = 1;
      max_depth = 0;
      max_degree = 0;
      revealed = 0;
      acc = Tree_stats.Acc.create ();
    }
  in
  (* Root roles: spine for the chained families, 0 elsewhere. *)
  (match family with
  | Caterpillar _ | Comb _ -> t.role.(0) <- -1
  | _ -> ());
  t

let capacity t = t.capacity
let nodes_revealed t = t.revealed
let stats t = Tree_stats.Acc.stats t.acc

let grow_int_array a len cap fill =
  let bigger = Array.make cap fill in
  Array.blit a 0 bigger 0 len;
  bigger

let ensure t id =
  if id >= Array.length t.parents then begin
    let cap = min t.capacity (max (id + 1) (2 * Array.length t.parents)) in
    let old = t.len in
    t.parents <- grow_int_array t.parents old cap (-1);
    t.depths <- grow_int_array t.depths old cap 0;
    t.role <- grow_int_array t.role old cap 0;
    t.first_kid <- grow_int_array t.first_kid old cap (-1);
    t.nkids <- grow_int_array t.nkids old cap (-1)
  end

(* How many children [node] wants and, via [child_role], which role each
   promised child gets (by its index among the node's children). *)
let wanted t node =
  let depth = t.depths.(node) in
  match t.family with
  | Path -> if depth < t.capacity - 1 then 1 else 0
  | Star -> if node = 0 then t.capacity - 1 else 0
  | Complete arity -> if depth < t.target_depth then arity else 0
  | Spider (legs, leg_len) ->
      if node = 0 then (if leg_len = 0 then 0 else legs)
      else if depth < leg_len then 1
      else 0
  | Caterpillar (spine, legs) ->
      (* Spine node at depth i: [legs] leaves, plus the next spine node
         last (matching Tree_gen's port order) while i < spine. *)
      if t.role.(node) = -1 then legs + if depth < spine then 1 else 0
      else 0
  | Comb (spine, tooth_len) ->
      if t.role.(node) = -1 then
        (* Spine node: a tooth (unless teeth are empty) then the next
           spine node, while spine steps remain. Tree_gen's port order
           puts the tooth first. *)
        if depth < spine then (if tooth_len = 0 then 1 else 2) else 0
      else if t.role.(node) > 0 then 1 (* tooth with edges remaining *)
      else 0
  | Broom (handle, bristles) ->
      if depth < handle then 1 else if depth = handle then bristles else 0
  | Random seed -> 1 + (hash2 seed node mod 3)

let child_role t node idx =
  match t.family with
  | Caterpillar (spine, legs) ->
      ignore spine;
      if t.role.(node) = -1 && idx = legs then -1 (* the spine child *) else 0
  | Comb (_, tooth_len) ->
      if t.role.(node) = -1 then
        if tooth_len > 0 && idx = 0 then tooth_len - 1 (* tooth start *)
        else -1 (* the spine child *)
      else t.role.(node) - 1 (* deeper along the tooth *)
  | _ -> 0

let reveal_degree t ~node ~arriving:_ ~round:_ =
  if node < 0 || node >= t.len then
    invalid_arg "Lazy_world: reveal of an unpromised node";
  if t.nkids.(node) >= 0 then
    invalid_arg "Lazy_world: node revealed twice (world misuse)";
  let depth = t.depths.(node) in
  let remaining = t.capacity - t.next_id in
  (* For every family but Random the capacity is exact, so the clamp
     never binds; Random spends the budget down to zero. *)
  let promised = min (max 0 (wanted t node)) remaining in
  let first = t.next_id in
  if promised > 0 then begin
    ensure t (first + promised - 1);
    for idx = 0 to promised - 1 do
      let id = first + idx in
      t.parents.(id) <- node;
      t.depths.(id) <- depth + 1;
      t.role.(id) <- child_role t node idx
    done;
    t.next_id <- first + promised;
    t.len <- t.next_id;
    if depth + 1 > t.max_depth then t.max_depth <- depth + 1
  end;
  t.first_kid.(node) <- (if promised > 0 then first else -1);
  t.nkids.(node) <- promised;
  t.revealed <- t.revealed + 1;
  Tree_stats.Acc.add t.acc ~depth ~children:promised;
  let degree = promised + if node = 0 then 0 else 1 in
  if degree > t.max_degree then t.max_degree <- degree;
  degree

let child t v p =
  (* Port 0 of a non-root node is its parent; the environment only asks
     for dangling (child) ports. *)
  let idx = if v = 0 then p else p - 1 in
  if v < 0 || v >= t.len || t.nkids.(v) < 0 || idx < 0 || idx >= t.nkids.(v)
  then invalid_arg "Lazy_world.child: not a promised child port";
  t.first_kid.(v) + idx

let frozen t = Tree.of_parents (Array.sub t.parents 0 (max 1 t.next_id))

let world t =
  {
    Env.w_capacity = t.capacity;
    w_root = 0;
    w_degree = (fun ~node ~arriving ~round -> reveal_degree t ~node ~arriving ~round);
    w_child = (fun v p -> child t v p);
    w_stats = (fun () -> (t.next_id, t.max_depth, t.max_degree));
    w_tree = (fun () -> frozen t);
  }

(* The fully expanded instance, as a plain eager tree: run the same rules
   on a fresh copy, revealing every node in id order (parents always
   precede children, so this is valid). This is the canonical
   materialization — the shape any exploration of a non-Random family
   discovers, and a breadth-first exploration of a Random one. Costs
   O(n); the point of comparison for the huge tier's RSS baseline. *)
let materialize t =
  let fresh =
    make ~family:t.name ~n:t.req_n ~depth_hint:t.req_depth_hint
      ~seed:t.req_seed
  in
  let v = ref 0 in
  while !v < fresh.next_id do
    ignore (reveal_degree fresh ~node:!v ~arriving:1 ~round:0);
    incr v
  done;
  frozen fresh
