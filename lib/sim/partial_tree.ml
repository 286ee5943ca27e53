type node = int

type port_state = To_parent | Dangling | Child of node

(* Per-port encoding inside the port pool: -1 = leads to parent,
   -2 = dangling, otherwise the explored child id. *)
let enc_parent = -1
let enc_dangling = -2

(* Open-node bucket: a swap-remove vector of int32 node ids. Iteration
   order is deterministic — a pure function of the add/remove call
   sequence (which the synchronous simulator fully determines): nodes
   appear in insertion order except that removing a node moves the
   bucket's last node into the freed slot. Consumers that need a canonical
   order must sort (the list API does); the fold API exposes the raw order
   for O(1)-per-node scans whose reductions are order-independent. A
   bucket belongs to a depth, not to a node, so it grows by doubling: its
   size is the most open nodes its depth ever held at once. *)
type bucket = { mutable nodes : Bytes.t; mutable len : int }

let slot b i = Int32.to_int (Bytes.get_int32_ne b.nodes (i lsl 2))
let set_slot b i v = Bytes.set_int32_ne b.nodes (i lsl 2) (Int32.of_int v)

(* Every per-node attribute is an int32 column of the run's node store,
   which the lazy world, the environment and the algorithm share: parent
   and depth are the store's own columns, written identically by a lazy
   world at promise time and by [reveal_child]. The per-port states of all
   nodes share one paged pool indexed through [port_base], so no node owns
   a heap block and growth never copies. *)
module S = Node_store

(* Column access, unchecked: callers pass only ids below the store's
   [bound] and pool offsets below the pool's [backed]. *)
let get = S.unsafe_get
let set = S.unsafe_set
let vget = S.unsafe_vget
let vset = S.unsafe_vset

type t = {
  root : node;
  store : S.t;
  nports : S.col; (* -1 = unexplored *)
  parents : S.col;
  parent_ports : S.col;
      (* port on the parent leading down to the node; -1 for the root *)
  depths : S.col;
  port_base : S.col; (* start of the node's slice in port_pool *)
  dangling_cnt : S.col;
  open_cnt : S.col;
      (* open-branch counter: dangling ports plus explored children whose
         subtree is still open; > 0 iff the subtree holds a dangling edge *)
  in_bucket : S.col; (* index inside its depth bucket; -1 *)
  port_pool : S.vector;
  mutable pool_len : int;
  mutable open_at : bucket option array; (* indexed by depth; growable *)
  mutable min_open_ptr : int;
  mutable total_dangling : int;
  mutable num_explored : int;
}

let root t = t.root
let store t = t.store
let[@inline] is_explored t v =
  v >= 0 && v < t.store.S.bound && get t.nports v >= 0
let num_explored t = t.num_explored
let num_dangling t = t.total_dangling
let complete t = t.total_dangling = 0
let id_bound t = t.store.S.bound

(* Append a slice of [len] ports to the pool and return its base index. *)
let pool_alloc t len =
  let base = t.pool_len in
  t.pool_len <- base + len;
  if t.pool_len > t.port_pool.S.backed then S.reserve t.port_pool t.pool_len;
  base

let[@inline] pool t v p = vget t.port_pool (get t.port_base v + p)

let[@inline never] unexplored name = invalid_arg (name ^ ": unexplored node")
let[@inline] check_explored t v name = if not (is_explored t v) then unexplored name

let[@inline] num_ports t v =
  check_explored t v "Partial_tree.num_ports";
  get t.nports v

let port t v p =
  check_explored t v "Partial_tree.port";
  if p < 0 || p >= get t.nports v then
    invalid_arg "Partial_tree.port: bad port";
  let e = pool t v p in
  if e = enc_parent then To_parent
  else if e = enc_dangling then Dangling
  else Child e

let[@inline] is_port_dangling t v p =
  check_explored t v "Partial_tree.is_port_dangling";
  pool t v p = enc_dangling

let[@inline] port_child_id t v p =
  check_explored t v "Partial_tree.port_child_id";
  let e = pool t v p in
  if e >= 0 then e else -1

let iter_dangling_ports t v f =
  check_explored t v "Partial_tree.iter_dangling_ports";
  for p = 0 to get t.nports v - 1 do
    if pool t v p = enc_dangling then f p
  done

let iter_explored_children t v f =
  check_explored t v "Partial_tree.iter_explored_children";
  for p = 0 to get t.nports v - 1 do
    let e = pool t v p in
    if e >= 0 then f p e
  done

let parent t v =
  check_explored t v "Partial_tree.parent";
  if v = t.root then None else Some (get t.parents v)

let[@inline] parent_id t v =
  check_explored t v "Partial_tree.parent_id";
  if v = t.root then -1 else get t.parents v

let[@inline] parent_port t v =
  check_explored t v "Partial_tree.parent_port";
  get t.parent_ports v

let[@inline] depth_of t v =
  check_explored t v "Partial_tree.depth_of";
  get t.depths v

let is_open t v = is_explored t v && get t.dangling_cnt v > 0

let[@inline] subtree_open t v =
  check_explored t v "Partial_tree.subtree_open";
  get t.open_cnt v > 0

let[@inline] max_depth_index t = Array.length t.open_at - 1

let[@inline] bucket_len t d =
  match t.open_at.(d) with None -> 0 | Some b -> b.len

let[@inline] min_open_depth_raw t =
  if t.total_dangling = 0 then -1
  else begin
    let d = ref t.min_open_ptr in
    while !d <= max_depth_index t && bucket_len t !d = 0 do
      incr d
    done;
    t.min_open_ptr <- !d;
    if !d > max_depth_index t then -1 else !d
  end

let min_open_depth t =
  let d = min_open_depth_raw t in
  if d < 0 then None else Some d

let[@inline] num_open_at_depth t d =
  if d < 0 || d > max_depth_index t then 0 else bucket_len t d

let[@inline] nth_open_at_depth t d i =
  if i < 0 || i >= num_open_at_depth t d then
    invalid_arg "Partial_tree.nth_open_at_depth: index out of range";
  match t.open_at.(d) with None -> assert false | Some b -> slot b i

let open_nodes_at_depth t d =
  (* Canonical (sorted) order, independent of the bucket's internal
     swap-remove order. *)
  List.sort compare
    (List.init (num_open_at_depth t d) (nth_open_at_depth t d))

let open_nodes_at_min_depth t =
  match min_open_depth t with None -> [] | Some d -> open_nodes_at_depth t d

let is_ancestor t a v =
  check_explored t a "Partial_tree.is_ancestor";
  check_explored t v "Partial_tree.is_ancestor";
  let da = get t.depths a in
  let rec up v =
    if get t.depths v < da then false else v = a || up (get t.parents v)
  in
  up v

let ports_from_root t v =
  check_explored t v "Partial_tree.ports_from_root";
  (* Walk up through the parent-port cache: O(depth), no port scans. *)
  let rec up v acc =
    if v = t.root then acc
    else begin
      let p = get t.parent_ports v in
      if p < 0 then invalid_arg "Partial_tree.ports_from_root: broken parent link";
      up (get t.parents v) (p :: acc)
    end
  in
  up v []

let fold_explored t ~init ~f =
  let acc = ref init in
  for v = 0 to id_bound t - 1 do
    if get t.nports v >= 0 then acc := f !acc v
  done;
  !acc

let bucket t d =
  if d > max_depth_index t then begin
    let cap = Int.max (d + 1) (2 * Array.length t.open_at) in
    let bigger = Array.make cap None in
    Array.blit t.open_at 0 bigger 0 (Array.length t.open_at);
    t.open_at <- bigger
  end;
  match t.open_at.(d) with
  | Some b -> b
  | None ->
      let b = { nodes = Bytes.create (8 * 4); len = 0 } in
      t.open_at.(d) <- Some b;
      b

let add_open t v =
  let d = get t.depths v in
  let b = bucket t d in
  if 4 * b.len = Bytes.length b.nodes then
    b.nodes <- Bytes.extend b.nodes 0 (Bytes.length b.nodes);
  set_slot b b.len v;
  set t.in_bucket v b.len;
  b.len <- b.len + 1;
  if d < t.min_open_ptr then t.min_open_ptr <- d

let remove_open t v =
  let i = get t.in_bucket v in
  if i >= 0 then begin
    match t.open_at.(get t.depths v) with
    | None -> ()
    | Some b ->
        let last = slot b (b.len - 1) in
        set_slot b i last;
        set t.in_bucket last i;
        b.len <- b.len - 1;
        set t.in_bucket v (-1)
  end

(* One branch of [v] stopped being open: its dangling port was crossed
   into a leaf, or the child behind it closed. Closing is absorbing (no
   dangling edge can appear below a node whose subtree has none), so each
   counter reaches 0 exactly once and only then charges its parent: the
   walk stops at the first ancestor that stays open, and a whole run
   costs O(n), not O(n·depth). *)
let close_branch t v =
  let u = ref v in
  let continue = ref true in
  while !continue do
    let c = get t.open_cnt !u - 1 in
    set t.open_cnt !u c;
    if c > 0 || !u = t.root then continue := false
    else u := get t.parents !u
  done

let check_invariants t =
  let fail msg = invalid_arg ("Partial_tree.check_invariants: " ^ msg) in
  let n = id_bound t in
  let nports v = get t.nports v and depth v = get t.depths v in
  let expected_total = ref 0 in
  let expected_sub = Array.make n 0 in
  let count_dangling v =
    let cnt = ref 0 in
    for p = 0 to nports v - 1 do
      if pool t v p = enc_dangling then incr cnt
    done;
    !cnt
  in
  for v = 0 to n - 1 do
    if nports v >= 0 then begin
      let cnt = count_dangling v in
      if cnt <> get t.dangling_cnt v then fail "dangling_cnt mismatch";
      expected_total := !expected_total + cnt;
      expected_sub.(v) <- cnt;
      (* Parent-port cache: the parent's port must lead back. *)
      if v <> t.root then begin
        let pp = get t.parent_ports v in
        let pr = get t.parents v in
        if pp < 0 || pp >= nports pr || pool t pr pp <> v then
          fail "parent_port cache points to the wrong port"
      end
      else if get t.parent_ports v <> -1 then fail "root has a parent_port";
      (* Open-node index: in the bucket iff open, at the recorded slot. *)
      let i = get t.in_bucket v in
      if (cnt > 0) <> (i >= 0) then fail "open-node index mismatch";
      if i >= 0 then
        match t.open_at.(depth v) with
        | None -> fail "in_bucket set but no bucket at the node's depth"
        | Some b ->
            if i >= b.len || slot b i <> v then
              fail "in_bucket slot does not hold the node"
    end
    else if get t.in_bucket v <> -1 then fail "unexplored node indexed as open"
  done;
  (* Every bucket slot points back through in_bucket, at the right depth. *)
  Array.iteri
    (fun d b ->
      match b with
      | None -> ()
      | Some b ->
          for i = 0 to b.len - 1 do
            let v = slot b i in
            if v < 0 || v >= n || nports v < 0 then
              fail "bucket holds an invalid node";
            if get t.in_bucket v <> i then fail "bucket slot/in_bucket disagree";
            if depth v <> d then fail "bucket holds a node of another depth"
          done)
    t.open_at;
  if !expected_total <> t.total_dangling then fail "total_dangling mismatch";
  (* Dangling edges per subtree, from scratch: deepest nodes first, each
     adds its sum into its parent's. *)
  let by_depth =
    Array.of_list (fold_explored t ~init:[] ~f:(fun acc v -> v :: acc))
  in
  Array.stable_sort (fun a b -> compare (depth b) (depth a)) by_depth;
  Array.iter
    (fun v ->
      if v <> t.root then begin
        let p = get t.parents v in
        expected_sub.(p) <- expected_sub.(p) + expected_sub.(v)
      end)
    by_depth;
  (* The counter is the node's dangling ports plus its explored children
     with an open subtree, and it is positive exactly when the subtree
     still holds a dangling edge. *)
  Array.iter
    (fun v ->
      let open_children = ref 0 in
      iter_explored_children t v (fun _ c ->
          if expected_sub.(c) > 0 then incr open_children);
      if get t.open_cnt v <> get t.dangling_cnt v + !open_children then
        fail "open-branch counter mismatch";
      if subtree_open t v <> (expected_sub.(v) > 0) then
        fail "subtree_open disagrees with the dangling-descendant sum")
    by_depth;
  (match min_open_depth t with
  | None -> if t.total_dangling <> 0 then fail "min_open_depth = None too early"
  | Some d ->
      if open_nodes_at_depth t d = [] then fail "empty min-depth bucket";
      for d' = 0 to d - 1 do
        if
          List.exists
            (fun v -> get t.dangling_cnt v > 0)
            (open_nodes_at_depth t d')
        then fail "min_open_depth not minimal"
      done)

module Internal = struct
  let on_store store ~root =
    if root < 0 || root >= store.S.capacity then
      invalid_arg "Partial_tree.create: bad root";
    S.ensure store root;
    let col fill = S.column store ~fill in
    {
      root;
      store;
      nports = col (-1);
      parents = store.S.parent;
      parent_ports = col (-1);
      depths = store.S.depth;
      port_base = col 0;
      dangling_cnt = col 0;
      open_cnt = col 0;
      in_bucket = col (-1);
      (* A tree of n nodes has 2(n-1) ports. *)
      port_pool = S.vector store ~hint:(2 * store.S.capacity);
      pool_len = 0;
      open_at = Array.make (min 64 (store.S.capacity + 1)) None;
      min_open_ptr = 0;
      total_dangling = 0;
      num_explored = 0;
    }

  let create ~hidden_n ~root =
    if hidden_n < 1 then invalid_arg "Partial_tree.create: empty tree";
    on_store (S.create ~capacity:hidden_n) ~root

  (* Append a freshly explored node whose depth, parent and parent port
     are already set: all ports dangling except port 0 of a non-root. *)
  let admit t v ~num_ports =
    let base = pool_alloc t num_ports in
    for p = 0 to num_ports - 1 do
      vset t.port_pool (base + p) enc_dangling
    done;
    if v <> t.root then vset t.port_pool base enc_parent;
    set t.port_base v base;
    set t.nports v num_ports;
    let cnt = num_ports - if v = t.root then 0 else 1 in
    set t.dangling_cnt v cnt;
    set t.open_cnt v cnt;
    t.num_explored <- t.num_explored + 1;
    if cnt > 0 then begin
      t.total_dangling <- t.total_dangling + cnt;
      add_open t v
    end

  let reveal_root t ~num_ports =
    if get t.nports t.root >= 0 then
      invalid_arg "Partial_tree.reveal_root: already explored";
    if num_ports < 0 then
      invalid_arg "Partial_tree.reveal_root: negative degree";
    set t.depths t.root 0;
    admit t t.root ~num_ports

  let reveal_child t v p c ~num_ports =
    check_explored t v "Partial_tree.reveal_child";
    if p < 0 || p >= get t.nports v then
      invalid_arg "Partial_tree.reveal_child: bad port";
    if pool t v p <> enc_dangling then
      invalid_arg "Partial_tree.reveal_child: port not dangling";
    if c < 0 || c >= t.store.S.capacity then
      invalid_arg "Partial_tree.reveal_child: bad child id";
    if num_ports < 1 then
      invalid_arg "Partial_tree.reveal_child: a child needs a parent port";
    if c >= t.store.S.bound then S.ensure t.store c;
    if get t.nports c >= 0 then
      invalid_arg "Partial_tree.reveal_child: already explored";
    vset t.port_pool (get t.port_base v + p) c;
    set t.parents c v;
    set t.parent_ports c p;
    set t.depths c (get t.depths v + 1);
    let dv = get t.dangling_cnt v - 1 in
    set t.dangling_cnt v dv;
    t.total_dangling <- t.total_dangling - 1;
    if dv = 0 then remove_open t v;
    admit t c ~num_ports;
    (* The branch through [p] stays open iff [c] has a dangling port. *)
    if num_ports = 1 then close_branch t v
end
