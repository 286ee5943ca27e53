module Env = Bfdn_sim.Env
module Partial_tree = Bfdn_sim.Partial_tree
module Whiteboard = Bfdn_sim.Whiteboard

(* An anchor is addressed by the edge leading to it: the planner knows the
   port path of the parent plus one down-port. [Root] is the bootstrap
   anchor. *)
type key = Root | Via of int * int

type rmode =
  | Idle (* at the root, waiting for an assignment *)
  | Walk of int list (* breadth-first descent along the stacked ports *)
  | Dfs (* partition-driven depth-first traversal *)

type rstate = {
  mutable mode : rmode;
  mutable key : key;
  mutable anchor_node : int; (* -1 until the robot reaches its anchor *)
  mutable anchor_ports : int;
  mutable snapshot : int list; (* finished ports of the anchor, as last seen *)
  mutable path : (int * int) list; (* (parent, parent-port) back to the root *)
  mutable pending_mark : (int * int) option; (* finished-port write on arrival *)
}

type t = {
  env : Env.t;
  wb : Whiteboard.t;
  robots : rstate array;
  (* planner state, living at the root *)
  mutable d : int;
  anchors : (key, unit) Hashtbl.t; (* A *)
  returned : (key, unit) Hashtbl.t; (* R *)
  children : (key, unit) Hashtbl.t; (* A' *)
  children_returned : (key, unit) Hashtbl.t; (* R' *)
  load : (key, int) Hashtbl.t;
  mutable assignments : int;
  per_depth : int array;
  (* memory accounting for the Section 4.1 claim: robots need at most
     Delta + D log Delta bits *)
  mutable max_stack : int;
  mutable max_anchor_ports : int;
}

let make env =
  let k = Env.k env in
  let t =
    {
      env;
      wb = Whiteboard.create ~hidden_n:(Env.capacity env);
      robots =
        Array.init k (fun _ ->
            {
              mode = Idle;
              key = Root;
              anchor_node = -1;
              anchor_ports = 0;
              snapshot = [];
              path = [];
              pending_mark = None;
            });
      d = 0;
      anchors = Hashtbl.create 16;
      returned = Hashtbl.create 16;
      children = Hashtbl.create 16;
      children_returned = Hashtbl.create 16;
      load = Hashtbl.create 16;
      assignments = 0;
      per_depth = Array.make (Env.capacity env + 2) 0;
      max_stack = 0;
      max_anchor_ports = 0;
    }
  in
  Hashtbl.replace t.anchors Root ();
  t

let working_depth t = t.d
let assignments_total t = t.assignments
let assignments_at_depth t d =
  if d < 0 || d >= Array.length t.per_depth then 0 else t.per_depth.(d)

let memory_bits_used t =
  (* port stack: one port number per level; finished-port set: one bit per
     port of the anchor. *)
  let port_bits = Bfdn_util.Mathx.ceil_log2 (max 2 t.max_anchor_ports) in
  (t.max_stack * port_bits) + t.max_anchor_ports

let max_stack_length t = t.max_stack

let load_of t key = try Hashtbl.find t.load key with Not_found -> 0

let add_load t key delta =
  Hashtbl.replace t.load key (load_of t key + delta)

let ensure_board t pos =
  if not (Whiteboard.initialized t.wb pos) then begin
    let view = Env.view t.env in
    Whiteboard.init_node t.wb pos
      ~num_ports:(Partial_tree.num_ports view pos)
      ~is_root:(pos = Partial_tree.root view)
  end

(* A robot standing at the root in [Dfs] mode has completed its tour:
   deliver its memory to the planner. *)
let report t r =
  if Hashtbl.mem t.anchors r.key && not (Hashtbl.mem t.returned r.key) then begin
    Hashtbl.replace t.returned r.key ();
    if r.anchor_node >= 0 then begin
      let first_down = if r.key = Root then 0 else 1 in
      for p = first_down to r.anchor_ports - 1 do
        Hashtbl.replace t.children (Via (r.anchor_node, p)) ()
      done;
      List.iter
        (fun p ->
          if p >= first_down then
            Hashtbl.replace t.children_returned (Via (r.anchor_node, p)) ())
        r.snapshot
    end
  end;
  (* Algorithm 2 line 6 reads the robot's whole memory: the finished ports
     of its anchor also witness returns from {e current-era} anchors one
     level below it — without this, the planner keeps probing subtrees the
     reporting robot itself finished. *)
  if r.anchor_node >= 0 then
    List.iter
      (fun p ->
        let key = Via (r.anchor_node, p) in
        if Hashtbl.mem t.anchors key then Hashtbl.replace t.returned key ())
      r.snapshot;
  add_load t r.key (-1);
  r.mode <- Idle;
  r.anchor_node <- -1;
  r.snapshot <- [];
  r.path <- []

let unreturned_anchors t =
  Hashtbl.fold
    (fun key () acc -> if Hashtbl.mem t.returned key then acc else key :: acc)
    t.anchors []

(* Algorithm 2 lines 7-13: advance the working depth once a robot has
   returned from every current anchor. *)
let advance t =
  let progressed = ref true in
  while !progressed do
    progressed := false;
    if unreturned_anchors t = [] then begin
      let fresh =
        Hashtbl.fold
          (fun key () acc ->
            if Hashtbl.mem t.children_returned key then acc else key :: acc)
          t.children []
      in
      if fresh <> [] then begin
        t.d <- t.d + 1;
        Hashtbl.reset t.anchors;
        Hashtbl.reset t.returned;
        Hashtbl.reset t.children;
        Hashtbl.reset t.children_returned;
        List.iter (fun key -> Hashtbl.replace t.anchors key ()) fresh;
        progressed := true
      end
    end
  done

(* Port stack leading from the root to an anchor key. *)
let stack_of_key t key =
  let view = Env.view t.env in
  match key with
  | Root -> []
  | Via (parent, port) -> Partial_tree.ports_from_root view parent @ [ port ]

let assign t i =
  let r = t.robots.(i) in
  match
    List.fold_left
      (fun best key ->
        match best with
        | None -> Some key
        | Some b ->
            if
              load_of t key < load_of t b
              || (load_of t key = load_of t b && compare key b < 0)
            then Some key
            else best)
      None (unreturned_anchors t)
  with
  | None -> () (* exploration finished: stay idle *)
  | Some key ->
      r.key <- key;
      let stack = stack_of_key t key in
      t.max_stack <- max t.max_stack (List.length stack);
      r.mode <- Walk stack;
      add_load t key 1;
      t.assignments <- t.assignments + 1;
      let depth = match key with Root -> 0 | Via (parent, _) ->
        Partial_tree.depth_of (Env.view t.env) parent + 1
      in
      if depth < Array.length t.per_depth then
        t.per_depth.(depth) <- t.per_depth.(depth) + 1

let select t =
  let view = Env.view t.env in
  let root = Partial_tree.root view in
  let k = Env.k t.env in
  let moves = Array.make k Env.Stay in
  (* 1. Deliver pending local writes and refresh anchor snapshots. *)
  for i = 0 to k - 1 do
    let r = t.robots.(i) in
    let pos = Env.position t.env i in
    (match r.pending_mark with
    | Some (u, p) ->
        assert (u = pos);
        ensure_board t u;
        Whiteboard.mark_finished t.wb u p;
        r.pending_mark <- None
    | None -> ());
    if r.anchor_node = pos && Whiteboard.initialized t.wb pos then
      r.snapshot <- Whiteboard.finished_ports t.wb pos
  done;
  (* 2. Robots whose tour is complete report to the planner. *)
  for i = 0 to k - 1 do
    let r = t.robots.(i) in
    if r.mode = Dfs && Env.position t.env i = root then report t r
  done;
  (* 3. Planner bookkeeping at the root. *)
  advance t;
  for i = 0 to k - 1 do
    let r = t.robots.(i) in
    if r.mode = Idle && Env.position t.env i = root then assign t i
  done;
  (* 4. Movement decisions. *)
  for i = 0 to k - 1 do
    let r = t.robots.(i) in
    let pos = Env.position t.env i in
    let descend p =
      ensure_board t pos;
      Whiteboard.mark_dispatched t.wb pos p;
      r.path <- (pos, p) :: r.path;
      moves.(i) <- Env.Via_port p
    in
    let go_up () =
      match r.path with
      | (parent, port) :: rest ->
          r.path <- rest;
          (* Mark the parent's port "finished" only when the node we are
             leaving is itself fully finished: by induction this makes
             finished-marks sound certificates that the whole subtree is
             explored. A robot bouncing off a subtree someone else is
             still working in must NOT certify it, or the planner stops
             sending helpers and one robot finishes alone (breaking the
             2n/k term of Proposition 6). *)
          ensure_board t pos;
          if Whiteboard.all_finished t.wb pos then
            r.pending_mark <- Some (parent, port);
          moves.(i) <- Env.Up
      | [] -> () (* at the root: wait *)
    in
    let dfs_step () =
      ensure_board t pos;
      match Whiteboard.partition t.wb pos with
      | Some p -> descend p
      | None -> go_up ()
    in
    match r.mode with
    | Idle -> ()
    | Walk (p :: rest) ->
        r.mode <- Walk rest;
        descend p
    | Walk [] ->
        (* Arrived at the anchor: record it and start the traversal. *)
        r.anchor_node <- pos;
        ensure_board t pos;
        r.anchor_ports <- Partial_tree.num_ports view pos;
        t.max_anchor_ports <- max t.max_anchor_ports r.anchor_ports;
        r.snapshot <- Whiteboard.finished_ports t.wb pos;
        r.mode <- Dfs;
        dfs_step ()
    | Dfs -> if pos <> root then dfs_step ()
  done;
  moves

let algo t =
  {
    Bfdn_sim.Exec_env.select = (fun _ -> select t);
    finished = (fun env -> Env.fully_explored env && Env.all_at_root env);
  }
