module Tree = Bfdn_trees.Tree
module Mathx = Bfdn_util.Mathx

(* Online worlds: the hidden tree is decided node by node as the
   exploration reveals it. Two kinds of degree rule drive it:
   - the deterministic instance families of {!Bfdn_trees.Tree_gen},
     produced lazily instead of being built up front, so exploring a
     prefix of an n=10^7 world costs O(explored) memory end to end;
   - an adaptive adversary's policy (see {!Adversary}), consulted at each
     reveal with the crowd arriving, the round and the budget left.
   Every per-node table of the run — this module's, the view's, the
   environment's and the algorithm's — is a column of the one
   {!Node_store} this module creates, grown a page at a time.

   Child ids are allocated densely at the parent's reveal (promise time),
   before anything about the child's own subtree is decided, so the
   discovered tree never leaks hidden information. Because one reveal
   promises all children of a node at once, the children occupy
   consecutive ids and the per-node child table is just
   (first_kid, nkids) — no per-node heap block. Parent and depth are the
   store's shared columns: written here at promise time, they are the
   values the view reads once the node is revealed.

   Family shapes are driven by a per-node [role] decided at promise time
   from the parent's role, so every deterministic family is
   exploration-order independent. The "random" family is not: it derives
   child counts from hash(seed, id), but ids are handed out in reveal
   order and the node budget runs out wherever the exploration is, so its
   tree is a deterministic function of the spec {e and} of the order the
   algorithm reveals nodes in (two algorithms on one spec explore
   different trees). A policy is free to depend on anything. *)

type policy =
  node:int -> depth:int -> arriving:int -> round:int -> remaining:int -> int

type family =
  | Path
  | Star
  | Complete of int (* arity; children iff depth < target depth *)
  | Spider of int * int (* legs, leg_len *)
  | Caterpillar of int * int (* spine, legs_per_node *)
  | Comb of int * int (* spine, tooth_len *)
  | Broom of int * int (* handle, bristles *)
  | Random of int (* seed *)
  | Policy of policy * int (* an adversary's rule, its depth budget *)

type t = {
  family : family;
  remake : (unit -> t) option; (* a fresh copy, for [materialize] *)
  capacity : int; (* a family instance's exact node count; a policy's budget *)
  target_depth : int; (* Complete only *)
  store : Node_store.t;
  parents : Node_store.col; (* -1 until promised *)
  depths : Node_store.col;
  role : Node_store.col option;
      (* family-specific, set at promise time; Caterpillar and Comb only *)
  first_kid : Node_store.col; (* -1 until revealed *)
  nkids : Node_store.col; (* -1 until revealed *)
  mutable next_id : int; (* ids 0..next_id-1 are promised *)
  mutable max_depth : int;
  mutable max_degree : int;
  mutable revealed : int;
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
let shape name ~n ~depth_hint ~seed =
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
  (family, capacity, target_depth)

let instance_capacity ~family ~n ~depth_hint =
  let _, capacity, _ = shape family ~n ~depth_hint ~seed:0 in
  capacity

let create family ~capacity ~target_depth ~remake =
  let store = Node_store.create ~capacity in
  let t =
    {
      family;
      remake;
      capacity;
      target_depth;
      store;
      parents = store.Node_store.parent;
      depths = store.Node_store.depth;
      role =
        (match family with
        | Caterpillar _ | Comb _ -> Some (Node_store.column store ~fill:0)
        | _ -> None);
      first_kid = Node_store.column store ~fill:(-1);
      nkids = Node_store.column store ~fill:(-1);
      next_id = 1;
      max_depth = 0;
      max_degree = 0;
      revealed = 0;
    }
  in
  Node_store.set t.depths 0 0;
  (* Root roles: spine for the chained families, 0 elsewhere. *)
  Option.iter (fun role -> Node_store.set role 0 (-1)) t.role;
  t

let rec make ~family:name ~n ~depth_hint ~seed =
  let family, capacity, target_depth = shape name ~n ~depth_hint ~seed in
  create family ~capacity ~target_depth
    ~remake:(Some (fun () -> make ~family:name ~n ~depth_hint ~seed))

let adaptive ~capacity ~depth_budget policy =
  if depth_budget < 0 then
    invalid_arg "Lazy_world.adaptive: negative depth budget";
  create (Policy (policy, depth_budget)) ~capacity ~target_depth:0 ~remake:None

let capacity t = t.capacity
let nodes_revealed t = t.revealed

let role t v = match t.role with Some c -> Node_store.get c v | None -> 0

(* How many children [node] wants and, via [child_role], which role each
   promised child gets (by its index among the node's children). *)
let wanted t node ~depth ~arriving ~round ~remaining =
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
      if role t node = -1 then legs + if depth < spine then 1 else 0
      else 0
  | Comb (spine, tooth_len) ->
      if role t node = -1 then
        (* Spine node: a tooth (unless teeth are empty) then the next
           spine node, while spine steps remain. Tree_gen's port order
           puts the tooth first. *)
        if depth < spine then (if tooth_len = 0 then 1 else 2) else 0
      else if role t node > 0 then 1 (* tooth with edges remaining *)
      else 0
  | Broom (handle, bristles) ->
      if depth < handle then 1 else if depth = handle then bristles else 0
  | Random seed -> 1 + (hash2 seed node mod 3)
  | Policy (policy, depth_budget) ->
      (* A policy is never consulted at the depth budget: a stateful one
         (the random policy draws from its RNG) sees exactly the reveals
         it decides. *)
      if depth >= depth_budget then 0
      else policy ~node ~depth ~arriving ~round ~remaining

let child_role t node idx =
  match t.family with
  | Caterpillar (spine, legs) ->
      ignore spine;
      if role t node = -1 && idx = legs then -1 (* the spine child *) else 0
  | Comb (_, tooth_len) ->
      if role t node = -1 then
        if tooth_len > 0 && idx = 0 then tooth_len - 1 (* tooth start *)
        else -1 (* the spine child *)
      else role t node - 1 (* deeper along the tooth *)
  | _ -> 0

let reveal_degree t ~node ~arriving ~round =
  if node < 0 || node >= t.next_id then
    invalid_arg "Lazy_world: reveal of an unpromised node";
  if Node_store.get t.nkids node >= 0 then
    invalid_arg "Lazy_world: node revealed twice (world misuse)";
  let depth = Node_store.get t.depths node in
  let remaining = t.capacity - t.next_id in
  (* For every family but Random the capacity is exact, so the clamp
     never binds; Random and the policies spend the budget down to zero. *)
  let promised =
    Int.min (Int.max 0 (wanted t node ~depth ~arriving ~round ~remaining))
      remaining
  in
  let first = t.next_id in
  if promised > 0 then begin
    Node_store.ensure t.store (first + promised - 1);
    for idx = 0 to promised - 1 do
      let id = first + idx in
      Node_store.set t.parents id node;
      Node_store.set t.depths id (depth + 1);
      match t.role with
      | Some role -> Node_store.set role id (child_role t node idx)
      | None -> ()
    done;
    t.next_id <- first + promised;
    if depth + 1 > t.max_depth then t.max_depth <- depth + 1
  end;
  Node_store.set t.first_kid node (if promised > 0 then first else -1);
  Node_store.set t.nkids node promised;
  t.revealed <- t.revealed + 1;
  let degree = promised + if node = 0 then 0 else 1 in
  if degree > t.max_degree then t.max_degree <- degree;
  degree

let child t v p =
  (* Port 0 of a non-root node is its parent; the environment only asks
     for dangling (child) ports. *)
  let idx = if v = 0 then p else p - 1 in
  if v < 0 || v >= t.next_id || idx < 0 || idx >= Node_store.get t.nkids v
  then invalid_arg "Lazy_world.child: not a promised child port";
  Node_store.get t.first_kid v + idx

let frozen t =
  Tree.of_parents (Array.init (max 1 t.next_id) (Node_store.get t.parents))

let parent_of t v = Node_store.get t.parents v
let depth_of_node t v = Node_store.get t.depths v

let child_index t v =
  if v = 0 then 0 else v - Node_store.get t.first_kid (parent_of t v)

let world t =
  {
    Env.w_capacity = t.capacity;
    w_root = 0;
    w_degree = (fun ~node ~arriving ~round -> reveal_degree t ~node ~arriving ~round);
    w_child = (fun v p -> child t v p);
    w_stats = (fun () -> (t.next_id, t.max_depth, t.max_degree));
    w_tree = (fun () -> frozen t);
    w_store = Some t.store;
  }

(* The fully expanded instance, as a plain eager tree: run the same rules
   on a fresh copy, revealing every node in id order (parents always
   precede children, so this is valid). This is the canonical
   materialization — the shape any exploration of a non-Random family
   discovers, and a breadth-first exploration of a Random one. Costs
   O(n); the point of comparison for the huge tier's RSS baseline. *)
let materialize t =
  match t.remake with
  | None ->
      invalid_arg
        "Lazy_world.materialize: an adaptive world is decided by its \
         exploration"
  | Some remake ->
      let fresh = remake () in
      let v = ref 0 in
      while !v < fresh.next_id do
        ignore (reveal_degree fresh ~node:!v ~arriving:1 ~round:0);
        incr v
      done;
      frozen fresh
