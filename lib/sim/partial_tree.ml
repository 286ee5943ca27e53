type node = int

type port_state = To_parent | Dangling | Child of node

(* Per-port encoding inside the port pool: -1 = leads to parent,
   -2 = dangling, otherwise the explored child id. *)
let enc_parent = -1
let enc_dangling = -2

(* Above this hidden size the per-node arrays start small and grow
   geometrically as ids are revealed, so a mostly unexplored huge world
   costs O(explored) memory, not O(n). At or below it everything is
   preallocated up front — one allocation, no growth checks on the hot
   path — which keeps the small/medium tiers at their previous speed. *)
let prealloc_threshold = 65536

(* Open-node bucket: a swap-remove dynamic array. Iteration order is
   deterministic — a pure function of the add/remove call sequence (which
   the synchronous simulator fully determines): nodes appear in insertion
   order except that removing a node moves the bucket's last node into the
   freed slot. Consumers that need a canonical order must sort (the list
   API does); the fold API exposes the raw order for O(1)-per-node scans
   whose reductions are order-independent. *)
type bucket = { mutable nodes : int array; mutable len : int }

(* Storage is succinct and growable: all per-node attributes live in flat
   int arrays of one shared capacity [cap], and the per-port states of all
   nodes share a single flat pool ([port_pool]) indexed through
   [port_base] — no per-node heap block, so 10^7 explored nodes cost a
   handful of large arrays instead of 10^7 small ones. *)
type t = {
  root : node;
  hidden_n : int;
  mutable cap : int; (* length of every per-node array below *)
  mutable nports : int array; (* -1 = unexplored (replaces the bool array) *)
  mutable parents : int array;
  mutable parent_ports : int array;
      (* port on the parent leading down to the node; -1 for the root *)
  mutable depths : int array;
  mutable port_base : int array; (* start of the node's slice in port_pool *)
  mutable dangling_cnt : int array;
  mutable open_cnt : int array;
      (* open-branch counter: dangling ports plus explored children whose
         subtree is still open; > 0 iff the subtree holds a dangling edge *)
  mutable in_bucket : int array; (* index inside its depth bucket; -1 *)
  mutable port_pool : int array;
  mutable pool_len : int;
  mutable open_at : bucket option array; (* indexed by depth; growable *)
  mutable min_open_ptr : int;
  mutable total_dangling : int;
  mutable num_explored : int;
}

let root t = t.root
let is_explored t v = v >= 0 && v < t.cap && t.nports.(v) >= 0
let num_explored t = t.num_explored
let num_dangling t = t.total_dangling
let complete t = t.total_dangling = 0
let id_bound t = t.cap

let grow_int_array a len cap fill =
  let bigger = Array.make cap fill in
  Array.blit a 0 bigger 0 len;
  bigger

(* Make every per-node array cover ids up to [v] (inclusive), preserving
   the unexplored defaults in the new tail. *)
let ensure_node t v =
  if v >= t.cap then begin
    let cap = max (v + 1) (2 * t.cap) in
    let old = t.cap in
    t.nports <- grow_int_array t.nports old cap (-1);
    t.parents <- grow_int_array t.parents old cap (-1);
    t.parent_ports <- grow_int_array t.parent_ports old cap (-1);
    t.depths <- grow_int_array t.depths old cap (-1);
    t.port_base <- grow_int_array t.port_base old cap (-1);
    t.dangling_cnt <- grow_int_array t.dangling_cnt old cap 0;
    t.open_cnt <- grow_int_array t.open_cnt old cap 0;
    t.in_bucket <- grow_int_array t.in_bucket old cap (-1);
    t.cap <- cap
  end

(* Append a slice of [len] ports to the pool and return its base index. *)
let pool_alloc t len =
  let need = t.pool_len + len in
  if need > Array.length t.port_pool then begin
    let cap = max need (2 * Array.length t.port_pool) in
    t.port_pool <- grow_int_array t.port_pool t.pool_len cap enc_dangling
  end;
  let base = t.pool_len in
  t.pool_len <- need;
  base

let check_explored t v name =
  if not (is_explored t v) then invalid_arg (name ^ ": unexplored node")

let num_ports t v =
  check_explored t v "Partial_tree.num_ports";
  t.nports.(v)

let port t v p =
  check_explored t v "Partial_tree.port";
  if p < 0 || p >= t.nports.(v) then invalid_arg "Partial_tree.port: bad port";
  let e = t.port_pool.(t.port_base.(v) + p) in
  if e = enc_parent then To_parent
  else if e = enc_dangling then Dangling
  else Child e

let is_port_dangling t v p =
  check_explored t v "Partial_tree.is_port_dangling";
  t.port_pool.(t.port_base.(v) + p) = enc_dangling

let port_child_id t v p =
  check_explored t v "Partial_tree.port_child_id";
  let e = t.port_pool.(t.port_base.(v) + p) in
  if e >= 0 then e else -1

let iter_dangling_ports t v f =
  check_explored t v "Partial_tree.iter_dangling_ports";
  let base = t.port_base.(v) in
  for p = 0 to t.nports.(v) - 1 do
    if t.port_pool.(base + p) = enc_dangling then f p
  done

let iter_explored_children t v f =
  check_explored t v "Partial_tree.iter_explored_children";
  let base = t.port_base.(v) in
  for p = 0 to t.nports.(v) - 1 do
    let e = t.port_pool.(base + p) in
    if e >= 0 then f p e
  done

let dangling_ports t v =
  check_explored t v "Partial_tree.dangling_ports";
  let base = t.port_base.(v) in
  let acc = ref [] in
  for p = t.nports.(v) - 1 downto 0 do
    if t.port_pool.(base + p) = enc_dangling then acc := p :: !acc
  done;
  !acc

let parent t v =
  check_explored t v "Partial_tree.parent";
  if v = t.root then None else Some t.parents.(v)

let parent_id t v =
  check_explored t v "Partial_tree.parent_id";
  if v = t.root then -1 else t.parents.(v)

let parent_port t v =
  check_explored t v "Partial_tree.parent_port";
  t.parent_ports.(v)

let depth_of t v =
  check_explored t v "Partial_tree.depth_of";
  t.depths.(v)

let is_open t v = is_explored t v && t.dangling_cnt.(v) > 0
let subtree_open t v =
  check_explored t v "Partial_tree.subtree_open";
  t.open_cnt.(v) > 0

let max_depth_index t = Array.length t.open_at - 1

let bucket_len t d =
  match t.open_at.(d) with None -> 0 | Some b -> b.len

let min_open_depth_raw t =
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

let num_open_at_depth t d =
  if d < 0 || d > max_depth_index t then 0 else bucket_len t d

let nth_open_at_depth t d i =
  if i < 0 || i >= num_open_at_depth t d then
    invalid_arg "Partial_tree.nth_open_at_depth: index out of range";
  match t.open_at.(d) with None -> assert false | Some b -> b.nodes.(i)

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
  let da = t.depths.(a) in
  let rec up v = if t.depths.(v) < da then false else v = a || up t.parents.(v) in
  up v

let ports_from_root t v =
  check_explored t v "Partial_tree.ports_from_root";
  (* Walk up through the parent-port cache: O(depth), no port scans. *)
  let rec up v acc =
    if v = t.root then acc
    else begin
      let p = t.parent_ports.(v) in
      if p < 0 then invalid_arg "Partial_tree.ports_from_root: broken parent link";
      up t.parents.(v) (p :: acc)
    end
  in
  up v []

let fold_explored t ~init ~f =
  let acc = ref init in
  for v = 0 to t.cap - 1 do
    if t.nports.(v) >= 0 then acc := f !acc v
  done;
  !acc

let bucket t d =
  if d > max_depth_index t then begin
    let cap = max (d + 1) (2 * Array.length t.open_at) in
    let bigger = Array.make cap None in
    Array.blit t.open_at 0 bigger 0 (Array.length t.open_at);
    t.open_at <- bigger
  end;
  match t.open_at.(d) with
  | Some b -> b
  | None ->
      let b = { nodes = Array.make 8 (-1); len = 0 } in
      t.open_at.(d) <- Some b;
      b

let add_open t v =
  let d = t.depths.(v) in
  let b = bucket t d in
  let cap = Array.length b.nodes in
  if b.len = cap then begin
    let nodes = Array.make (2 * cap) (-1) in
    Array.blit b.nodes 0 nodes 0 cap;
    b.nodes <- nodes
  end;
  b.nodes.(b.len) <- v;
  t.in_bucket.(v) <- b.len;
  b.len <- b.len + 1;
  if d < t.min_open_ptr then t.min_open_ptr <- d

let remove_open t v =
  let i = t.in_bucket.(v) in
  if i >= 0 then begin
    match t.open_at.(t.depths.(v)) with
    | None -> ()
    | Some b ->
        let last = b.nodes.(b.len - 1) in
        b.nodes.(i) <- last;
        t.in_bucket.(last) <- i;
        b.len <- b.len - 1;
        t.in_bucket.(v) <- -1
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
    let c = t.open_cnt.(!u) - 1 in
    t.open_cnt.(!u) <- c;
    if c > 0 || !u = t.root then continue := false else u := t.parents.(!u)
  done

let check_invariants t =
  let fail msg = invalid_arg ("Partial_tree.check_invariants: " ^ msg) in
  let n = t.cap in
  let expected_total = ref 0 in
  let expected_sub = Array.make n 0 in
  let count_dangling v =
    let base = t.port_base.(v) in
    let cnt = ref 0 in
    for p = 0 to t.nports.(v) - 1 do
      if t.port_pool.(base + p) = enc_dangling then incr cnt
    done;
    !cnt
  in
  for v = 0 to n - 1 do
    if t.nports.(v) >= 0 then begin
      let cnt = count_dangling v in
      if cnt <> t.dangling_cnt.(v) then fail "dangling_cnt mismatch";
      expected_total := !expected_total + cnt;
      expected_sub.(v) <- cnt;
      (* Parent-port cache: the parent's port must lead back. *)
      if v <> t.root then begin
        let pp = t.parent_ports.(v) in
        let pr = t.parents.(v) in
        if
          pp < 0
          || pp >= t.nports.(pr)
          || t.port_pool.(t.port_base.(pr) + pp) <> v
        then fail "parent_port cache points to the wrong port"
      end
      else if t.parent_ports.(v) <> -1 then fail "root has a parent_port";
      (* Open-node index: in the bucket iff open, at the recorded slot. *)
      let i = t.in_bucket.(v) in
      if (cnt > 0) <> (i >= 0) then fail "open-node index mismatch";
      if i >= 0 then
        match t.open_at.(t.depths.(v)) with
        | None -> fail "in_bucket set but no bucket at the node's depth"
        | Some b ->
            if i >= b.len || b.nodes.(i) <> v then
              fail "in_bucket slot does not hold the node"
    end
    else if t.in_bucket.(v) <> -1 then fail "unexplored node indexed as open"
  done;
  (* Every bucket slot points back through in_bucket, at the right depth. *)
  Array.iteri
    (fun d b ->
      match b with
      | None -> ()
      | Some b ->
          for i = 0 to b.len - 1 do
            let v = b.nodes.(i) in
            if v < 0 || v >= n || t.nports.(v) < 0 then
              fail "bucket holds an invalid node";
            if t.in_bucket.(v) <> i then fail "bucket slot/in_bucket disagree";
            if t.depths.(v) <> d then fail "bucket holds a node of another depth"
          done)
    t.open_at;
  if !expected_total <> t.total_dangling then fail "total_dangling mismatch";
  (* Dangling edges per subtree, from scratch: deepest nodes first, each
     adds its sum into its parent's. *)
  let by_depth =
    Array.of_list (fold_explored t ~init:[] ~f:(fun acc v -> v :: acc))
  in
  Array.stable_sort (fun a b -> compare t.depths.(b) t.depths.(a)) by_depth;
  Array.iter
    (fun v ->
      if v <> t.root then begin
        let p = t.parents.(v) in
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
      if t.open_cnt.(v) <> t.dangling_cnt.(v) + !open_children then
        fail "open-branch counter mismatch";
      if subtree_open t v <> (expected_sub.(v) > 0) then
        fail "subtree_open disagrees with the dangling-descendant sum")
    by_depth;
  (match min_open_depth t with
  | None -> if t.total_dangling <> 0 then fail "min_open_depth = None too early"
  | Some d ->
      if open_nodes_at_depth t d = [] then fail "empty min-depth bucket";
      for d' = 0 to d - 1 do
        if List.exists (fun v -> t.dangling_cnt.(v) > 0) (open_nodes_at_depth t d')
        then fail "min_open_depth not minimal"
      done)

module Internal = struct
  let create ~hidden_n ~root =
    if hidden_n < 1 then invalid_arg "Partial_tree.create: empty tree";
    if root < 0 || root >= hidden_n then invalid_arg "Partial_tree.create: bad root";
    let cap =
      if hidden_n <= prealloc_threshold then hidden_n
      else max 1024 (root + 1)
    in
    let depth_cap = if hidden_n <= prealloc_threshold then hidden_n + 1 else 64 in
    (* Pool: total ports over the whole tree is 2(n-1), so 2·cap slots is a
       comfortable start even fully explored at the prealloc tier. *)
    let pool_cap = max 16 (2 * cap) in
    {
      root;
      hidden_n;
      cap;
      nports = Array.make cap (-1);
      parents = Array.make cap (-1);
      parent_ports = Array.make cap (-1);
      depths = Array.make cap (-1);
      port_base = Array.make cap (-1);
      dangling_cnt = Array.make cap 0;
      open_cnt = Array.make cap 0;
      in_bucket = Array.make cap (-1);
      port_pool = Array.make pool_cap enc_dangling;
      pool_len = 0;
      open_at = Array.make depth_cap None;
      min_open_ptr = 0;
      total_dangling = 0;
      num_explored = 0;
    }

  (* Append a freshly explored node whose depth, parent and parent port
     are already set: all ports dangling except port 0 of a non-root. *)
  let admit t v ~num_ports =
    let base = pool_alloc t num_ports in
    for p = 0 to num_ports - 1 do
      t.port_pool.(base + p) <- enc_dangling
    done;
    if v <> t.root then t.port_pool.(base) <- enc_parent;
    t.port_base.(v) <- base;
    t.nports.(v) <- num_ports;
    let cnt = num_ports - if v = t.root then 0 else 1 in
    t.dangling_cnt.(v) <- cnt;
    t.open_cnt.(v) <- cnt;
    t.num_explored <- t.num_explored + 1;
    if cnt > 0 then begin
      t.total_dangling <- t.total_dangling + cnt;
      add_open t v
    end

  let reveal_root t ~num_ports =
    if t.nports.(t.root) >= 0 then
      invalid_arg "Partial_tree.reveal_root: already explored";
    if num_ports < 0 then
      invalid_arg "Partial_tree.reveal_root: negative degree";
    t.depths.(t.root) <- 0;
    admit t t.root ~num_ports

  let reveal_child t v p c ~num_ports =
    check_explored t v "Partial_tree.reveal_child";
    if p < 0 || p >= t.nports.(v) then
      invalid_arg "Partial_tree.reveal_child: bad port";
    if t.port_pool.(t.port_base.(v) + p) <> enc_dangling then
      invalid_arg "Partial_tree.reveal_child: port not dangling";
    if c < 0 || c >= t.hidden_n then
      invalid_arg "Partial_tree.reveal_child: bad child id";
    if num_ports < 1 then
      invalid_arg "Partial_tree.reveal_child: a child needs a parent port";
    ensure_node t c;
    if t.nports.(c) >= 0 then
      invalid_arg "Partial_tree.reveal_child: already explored";
    t.port_pool.(t.port_base.(v) + p) <- c;
    t.parents.(c) <- v;
    t.parent_ports.(c) <- p;
    t.depths.(c) <- t.depths.(v) + 1;
    t.dangling_cnt.(v) <- t.dangling_cnt.(v) - 1;
    t.total_dangling <- t.total_dangling - 1;
    if t.dangling_cnt.(v) = 0 then remove_open t v;
    admit t c ~num_ports;
    (* The branch through [p] stays open iff [c] has a dangling port. *)
    if num_ports = 1 then close_branch t v
end
