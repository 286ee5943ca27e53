module Tree = Bfdn_trees.Tree

type robot = int

(* Immediate move codes: a port is its own code, so resolving one is a
   range check. *)
type move = int

let stay = -2
let up = -1
let[@inline] via p = p

type mask = round:int -> robot:robot -> bool

(* Fault injection is a pair of pure predicates over (round, robot): the
   same slot always answers the same, so select-time [allowed] and the
   execution inside [apply] agree within a round. [fh_enabled] guards the
   whole feature with a single immutable branch, keeping the no-faults
   path identical to the pre-fault hot loop. *)
type fault_hook = {
  fh_enabled : bool;
  fh_down : round:int -> robot:robot -> bool;
  fh_restart : round:int -> robot:robot -> bool;
  fh_may_restart : bool;
}

let fault_noop =
  {
    fh_enabled = false;
    fh_down = (fun ~round:_ ~robot:_ -> false);
    fh_restart = (fun ~round:_ ~robot:_ -> false);
    fh_may_restart = false;
  }

let mask_hook mask =
  {
    fault_noop with
    fh_enabled = true;
    fh_down = (fun ~round ~robot -> not (mask ~round ~robot));
  }

type reactive_blocker = round:int -> selected:move array -> bool array

(* The hidden side of the exploration: either a fixed tree, or a world
   materialized lazily by an adversary. Node ids of promised children are
   allocated before their subtree shape is decided, so the discovered tree
   never depends on information the robots should not have. *)
type world = {
  w_capacity : int; (* upper bound on node ids, for array sizing *)
  w_root : int;
  w_degree : node:int -> arriving:int -> round:int -> int;
      (* total ports of a node, decided once at its reveal *)
  w_child : int -> int -> int; (* (revealed parent, child port) -> node id *)
  w_stats : unit -> int * int * int; (* current n, depth, max degree *)
  w_tree : unit -> Tree.t;
  w_store : Node_store.t option;
      (* the store a world writes its own per-node columns to (a lazy
         world); [None] gives every environment a fresh one *)
}

let world_of_tree tree =
  (* w_stats is polled every round by the runner's termination bound;
     the tree records its depth and maximum degree, so these are reads. *)
  let stats = (Tree.n tree, Tree.depth tree, Tree.max_degree tree) in
  {
    w_capacity = Tree.n tree;
    w_root = Tree.root tree;
    w_degree = (fun ~node ~arriving:_ ~round:_ -> Tree.degree tree node);
    w_child = (fun v p -> Tree.neighbor_via_port tree v p);
    w_stats = (fun () -> stats);
    w_tree = (fun () -> tree);
    w_store = None;
  }

(* The class of a free robot's move that crosses no dangling port
   ([apply]'s [tgt_class]); a crossing's class is its port. *)
let to_parent = -1
let to_child = -2

type t = {
  world : world;
  view : Partial_tree.t;
  k : int;
  positions : int array;
  fault : fault_hook;
  mutable blocker : reactive_blocker option;
  mutable round : int;
  mutable restarts : int;
  mutable moves_total : int;
  moves_per_robot : int array;
  mutable edge_events : int;
  store : Node_store.t; (* the view's, holding the two columns below *)
  up_seen : Node_store.col; (* flag: first child-to-parent crossing seen *)
  mutable multi_reveals : int;
  (* Per-round scratch, reused across every {!apply} call so the steady
     state round loop allocates nothing. *)
  tgt_dst : int array; (* resolved target node, -1 = no move, length k *)
  tgt_class : int array;
      (* a mover's class: the dangling port it crosses (>= 0), [to_parent]
         or [to_child]; length k *)
  revealers : int array; (* the round's dangling-port crossers, in order *)
  arriving : Node_store.col; (* per-node arrival counts of a reveal round *)
  mutable released : bool; (* [release] handed the store's pages back *)
}

let of_world ?(fault = fault_noop) world ~k =
  if k < 1 then invalid_arg "Env.create: k must be >= 1";
  (* The per-node scratch is two columns of the view's node store, so it
     follows the revealed id space a page at a time: on a lazily
     materialized huge world the environment holds O(explored) state. *)
  let store =
    match world.w_store with
    | Some store -> store
    | None -> Node_store.create ~capacity:world.w_capacity
  in
  let view = Partial_tree.Internal.on_store store ~root:world.w_root in
  Partial_tree.Internal.reveal_root view
    ~num_ports:(world.w_degree ~node:world.w_root ~arriving:k ~round:0);
  {
    world;
    view;
    k;
    positions = Array.make k world.w_root;
    fault;
    blocker = None;
    round = 0;
    restarts = 0;
    moves_total = 0;
    moves_per_robot = Array.make k 0;
    edge_events = 0;
    store;
    up_seen = Node_store.flags store;
    multi_reveals = 0;
    tgt_dst = Array.make k (-1);
    tgt_class = Array.make k 0;
    revealers = Array.make k 0;
    arriving = Node_store.column store ~fill:0;
    released = false;
  }

let create ?fault tree ~k = of_world ?fault (world_of_tree tree) ~k

let set_reactive_blocker t blocker = t.blocker <- Some blocker

(* A lazy world's store is the world's: the view shares it, and it is
   left to the GC. *)
let release t =
  if (not t.released) && Option.is_none t.world.w_store then begin
    t.released <- true;
    Node_store.release t.store
  end

let released t = t.released

let k t = t.k
let capacity t = t.world.w_capacity
let round t = t.round
let view t = t.view
let position t i = t.positions.(i)
let positions t = Array.copy t.positions
let[@inline] allowed t i =
  not (t.fault.fh_enabled && t.fault.fh_down ~round:t.round ~robot:i)

let fully_explored t = Partial_tree.complete t.view

let all_at_root t =
  let root = Partial_tree.root t.view in
  let i = ref 0 in
  while !i < t.k && t.positions.(!i) = root do
    incr i
  done;
  !i = t.k

let restarts t = t.restarts
let moves_total t = t.moves_total
let moves_of_robot t i = t.moves_per_robot.(i)
let edge_events t = t.edge_events
let multi_reveals t = t.multi_reveals

let oracle_n t =
  let n, _, _ = t.world.w_stats () in
  n

let oracle_depth t =
  let _, d, _ = t.world.w_stats () in
  d

let oracle_max_degree t =
  let _, _, dd = t.world.w_stats () in
  dd

let oracle_tree t = t.world.w_tree ()

let apply t moves =
  if t.released then invalid_arg "Env.apply: released environment";
  if Array.length moves <> t.k then invalid_arg "Env.apply: wrong arity";
  (* The reactive blocker (Remark 8) sees the selected moves before
     deciding. Test-only adversary: this branch may allocate. *)
  let reactive =
    match t.blocker with
    | None -> None
    | Some blocker ->
        let verdict = blocker ~round:t.round ~selected:(Array.copy moves) in
        if Array.length verdict <> t.k then
          invalid_arg "Env.apply: reactive blocker returned wrong arity";
        Some verdict
  in
  (* Validate and classify every move before mutating anything: moves
     are synchronous. A robot the fault hook or the blocker pins stays,
     and its code goes unchecked. A free robot's move reads its node's
     port code once ([up] reads as the parent port): it goes up, down to
     an explored child, or across a dangling port. Targets are
     int-encoded ([tgt_dst] = -1 for a robot that stays), so resolution
     allocates nothing. *)
  let fault = t.fault and view = t.view in
  let dsts = t.tgt_dst and cls = t.tgt_class and revealers = t.revealers in
  let nrev = ref 0 in
  for i = 0 to t.k - 1 do
    let m = moves.(i) in
    if
      m = stay
      || (fault.fh_enabled && fault.fh_down ~round:t.round ~robot:i)
      || match reactive with None -> false | Some v -> not v.(i)
    then dsts.(i) <- -1
    else begin
      let pos = t.positions.(i) in
      let code =
        if m = up then -1
        else begin
          if m < 0 || m >= Partial_tree.num_ports view pos then
            invalid_arg "Env.apply: port out of range";
          Partial_tree.port_code view pos m
        end
      in
      if code >= 0 then begin
        dsts.(i) <- code;
        cls.(i) <- to_child
      end
      else if code = -1 then begin
        let p = Partial_tree.parent_id view pos in
        if p < 0 then invalid_arg "Env.apply: Up selected at the root";
        dsts.(i) <- p;
        cls.(i) <- to_parent
      end
      else begin
        (* Fresh ids enter only here: back them in every column. *)
        let dst = t.world.w_child pos m in
        if dst < 0 || dst >= t.store.Node_store.bound then
          Node_store.ensure t.store dst;
        dsts.(i) <- dst;
        cls.(i) <- m;
        revealers.(!nrev) <- i;
        incr nrev
      end
    end
  done;
  (* Arrival counts, for the worlds that decide a node at its reveal: an
     unexplored node is reached only across a dangling port, so only a
     reveal round counts, and only over its crossers. *)
  let arr = t.arriving in
  for j = 0 to !nrev - 1 do
    Node_store.unsafe_set arr dsts.(revealers.(j)) 0
  done;
  for j = 0 to !nrev - 1 do
    let d = dsts.(revealers.(j)) in
    Node_store.unsafe_set arr d (Node_store.unsafe_get arr d + 1)
  done;
  (* Apply. Dangling ports are resolved at most once even when several
     robots cross the same new edge in the same round. *)
  for i = 0 to t.k - 1 do
    let dst = dsts.(i) in
    if dst >= 0 then begin
      let src = t.positions.(i) in
      t.positions.(i) <- dst;
      t.moves_total <- t.moves_total + 1;
      t.moves_per_robot.(i) <- t.moves_per_robot.(i) + 1;
      let c = cls.(i) in
      if c = to_parent then begin
        (* First child-to-parent crossing is an edge event. *)
        if not (Node_store.unsafe_get_flag t.up_seen src) then begin
          Node_store.unsafe_set_flag t.up_seen src;
          t.edge_events <- t.edge_events + 1
        end
      end
      else if c >= 0 && not (Partial_tree.is_explored view dst) then begin
        (* New node: reveal it through the crossed dangling port. *)
        let arriving = Node_store.unsafe_get arr dst in
        if arriving > 1 then t.multi_reveals <- t.multi_reveals + 1;
        Partial_tree.Internal.reveal_child view src c dst
          ~num_ports:(t.world.w_degree ~node:dst ~arriving ~round:t.round);
        t.edge_events <- t.edge_events + 1
      end
    end
  done;
  (* Crash-with-restart: a replacement robot comes online at the root at
     the start of the next round. The teleport is not an edge traversal,
     so it leaves every move/edge-event metric untouched. *)
  if fault.fh_enabled && fault.fh_may_restart then begin
    let root = Partial_tree.root t.view in
    for i = 0 to t.k - 1 do
      if fault.fh_restart ~round:t.round ~robot:i then begin
        t.positions.(i) <- root;
        t.restarts <- t.restarts + 1
      end
    done
  end;
  t.round <- t.round + 1
