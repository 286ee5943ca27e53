module Tree = Bfdn_trees.Tree
module Rng = Bfdn_util.Rng

type policy =
  node:int -> depth:int -> arriving:int -> round:int -> remaining:int -> int

type t = {
  capacity : int;
  depth_budget : int;
  policy : policy;
  parents : int array; (* -1 until promised *)
  depths : int array;
  children : int list array; (* child ids of a revealed node, reverse port order *)
  child_of_port : int array array; (* set at reveal *)
  mutable next_id : int;
  mutable max_depth : int;
  mutable max_degree : int;
  revealed : bool array;
}

let make ~capacity ~depth_budget policy =
  if capacity < 1 then invalid_arg "Adversary.make: capacity must be >= 1";
  if depth_budget < 0 then invalid_arg "Adversary.make: negative depth budget";
  {
    capacity;
    depth_budget;
    policy;
    parents = Array.make capacity (-1);
    depths = Array.make capacity 0;
    children = Array.make capacity [];
    child_of_port = Array.make capacity [||];
    next_id = 1 (* the root is node 0 *);
    max_depth = 0;
    max_degree = 0;
    revealed = Array.make capacity false;
  }

let nodes_built t = t.next_id

(* Decide the degree of [node] at its reveal: promise children, allocating
   their ids immediately. *)
let reveal_degree t ~node ~arriving ~round =
  if t.revealed.(node) then
    invalid_arg "Adversary: node revealed twice (world misuse)";
  t.revealed.(node) <- true;
  let depth = t.depths.(node) in
  let remaining = t.capacity - t.next_id in
  let wanted =
    if depth >= t.depth_budget then 0
    else max 0 (t.policy ~node ~depth ~arriving ~round ~remaining)
  in
  let promised = min wanted remaining in
  let ports = Array.make promised (-1) in
  for c = 0 to promised - 1 do
    let id = t.next_id in
    t.next_id <- t.next_id + 1;
    t.parents.(id) <- node;
    t.depths.(id) <- depth + 1;
    t.children.(node) <- id :: t.children.(node);
    ports.(c) <- id;
    if depth + 1 > t.max_depth then t.max_depth <- depth + 1
  done;
  t.child_of_port.(node) <- ports;
  let degree = promised + if node = 0 then 0 else 1 in
  if degree > t.max_degree then t.max_degree <- degree;
  degree

let child t v p =
  let ports = t.child_of_port.(v) in
  (* Port 0 of a non-root node is its parent; the environment only asks
     for dangling (child) ports. *)
  let idx = if v = 0 then p else p - 1 in
  if idx < 0 || idx >= Array.length ports then
    invalid_arg "Adversary.child: not a promised child port";
  ports.(idx)

let make_rec ~capacity ~depth_budget make_policy =
  let forward = ref (fun ~node:_ ~depth:_ ~arriving:_ ~round:_ ~remaining:_ -> 0) in
  let t =
    make ~capacity ~depth_budget
      (fun ~node ~depth ~arriving ~round ~remaining ->
        !forward ~node ~depth ~arriving ~round ~remaining)
  in
  forward := make_policy t;
  t

let parent_of t v = t.parents.(v)

let child_index t v =
  if v = 0 then 0
  else begin
    let ports = t.child_of_port.(t.parents.(v)) in
    let rec find i = if ports.(i) = v then i else find (i + 1) in
    find 0
  end

let depth_of_node t v = t.depths.(v)

let frozen t =
  Tree.of_parents (Array.sub t.parents 0 (max 1 t.next_id))

let world t =
  {
    Env.w_capacity = t.capacity;
    w_root = 0;
    w_degree = (fun ~node ~arriving ~round -> reveal_degree t ~node ~arriving ~round);
    w_child = (fun v p -> child t v p);
    w_stats = (fun () -> (t.next_id, t.max_depth, t.max_degree));
    w_tree = (fun () -> frozen t);
    w_store = None;
  }

(* ---- stock policies ---- *)

let corridor_crowds ~threshold ~node:_ ~depth:_ ~arriving ~round:_ ~remaining:_ =
  if arriving >= threshold then 1 else 2

let greedy_widest ~node:_ ~depth:_ ~arriving:_ ~round:_ ~remaining = remaining

let miser ~node:_ ~depth:_ ~arriving:_ ~round:_ ~remaining:_ = 1

let random_policy rng ~max_children ~node:_ ~depth:_ ~arriving:_ ~round:_ ~remaining:_ =
  Rng.int rng (max_children + 1)

(* Spine-ness is decided at reveal time: the root is spine, and the
   first-listed child of a spine node is spine; everything else is a dead
   tooth. Parents are always revealed before their children, so the memo
   is filled in order. *)
let thick_comb t =
  let spine = Hashtbl.create 64 in
  Hashtbl.replace spine 0 ();
  fun ~node ~depth:_ ~arriving:_ ~round:_ ~remaining:_ ->
    let is_spine =
      node = 0
      || (Hashtbl.mem spine (parent_of t node) && child_index t node = 0)
    in
    if is_spine then begin
      Hashtbl.replace spine node ();
      2
    end
    else 0
