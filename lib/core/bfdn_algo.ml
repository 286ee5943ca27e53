module Env = Bfdn_sim.Env
module Partial_tree = Bfdn_sim.Partial_tree
module Rng = Bfdn_util.Rng
module Heartbeat = Bfdn_faults.Heartbeat
module Node_store = Bfdn_sim.Node_store

type policy = Least_loaded | First_open | Random_open of Rng.t

(* Crash-tolerance bookkeeping. Detection is purely whiteboard-local:
   every acting robot writes a heartbeat, and a robot silent for more
   than [suspect_after] rounds is {e buried} — its anchor is handed back
   to the pool (accounted at the root) so the survivors re-cover its
   subtree, and the termination condition stops waiting for it. Burial
   is reversible: a fresh surviving heartbeat (a restarted robot, or a
   false positive under whiteboard write drops) revives the robot, which
   then rejoins the fleet through the ordinary walk-home/re-anchor flow. *)
type ft = {
  hb : Heartbeat.t;
  suspect_after : int;
  buried : bool array;
}

(* A robot's pending breadth-first route, in a reusable per-robot
   buffer. The slice [route_pos, route_len) holds the moves left to reach
   the anchor. *)
type rstate = {
  mutable anchor : int;
  mutable route : Env.move array;
  mutable route_pos : int;
  mutable route_len : int;
}

type t = {
  env : Env.t;
  policy : policy;
  shortcut : bool;
  ft : ft option;
  probe : Bfdn_obs.Probe.t; (* reanchor summary and fault hooks *)
  robots : rstate array;
  (* Per-node scratch is columns of the view's node store
     ({!Partial_tree.store}), which grow with the revealed id space: on a
     lazily materialized huge world the algorithm holds O(explored) state
     instead of O(capacity). *)
  anchor_load : Node_store.col;
  (* Cursor over the ports of each node: everything before it is known to
     be non-dangling (or dangling-but-selected-this-round, hence resolved
     by the end of the round). Keeps the depth-next dangling lookup O(1)
     amortized even on high-degree nodes. *)
  dangle_cursor : Node_store.col;
  mutable reanchor_counts : int array; (* indexed by anchor depth *)
  mutable reanchors_total : int;
  mutable summary_sent : bool; (* probe reanchor summary fired once *)
  (* Round-local count of dangling edges selected by earlier robots at
     each node. It replaces a set of (node, port) pairs: the ports selected
     at a node within one round are always the first unselected dangling
     ports past the cursor (each robot takes the next one), so a count per
     node identifies them exactly. At most k nodes are selected at in a
     round, so the counts live in k-sized arrays ([sel_node.(j)] has
     [sel_cnt.(j)], j < [sel_len]), and the per-node [sel_slot] column
     points into them: a slot is valid only if it points back, so nothing
     is cleared between rounds but [sel_len]. *)
  sel_slot : Node_store.col;
  sel_node : int array;
  sel_cnt : int array;
  mutable sel_len : int;
  moves : Env.move array; (* returned by select, refilled each round *)
}

let make ?(policy = Least_loaded) ?(shortcut = false)
    ?(probe = Bfdn_obs.Probe.noop) ?(fault_tolerant = false) ?(suspect_after = 4)
    ?drop env =
  let store = Partial_tree.store (Env.view env) in
  let root = Partial_tree.root (Env.view env) in
  if suspect_after < 1 then
    invalid_arg "Bfdn_algo.make: suspect_after must be >= 1";
  {
    env;
    policy;
    shortcut;
    ft =
      (if not fault_tolerant then None
       else
         Some
           {
             hb = Heartbeat.create ?drop ~k:(Env.k env) ();
             suspect_after;
             buried = Array.make (Env.k env) false;
           });
    probe;
    robots =
      Array.init (Env.k env) (fun _ ->
          { anchor = root; route = Array.make 8 Env.stay; route_pos = 0; route_len = 0 });
    anchor_load =
      (let load = Node_store.column store ~fill:0 in
       Node_store.unsafe_set load root (Env.k env);
       load);
    dangle_cursor = Node_store.column store ~fill:0;
    reanchor_counts = Array.make 64 0;
    reanchors_total = 0;
    summary_sent = false;
    sel_slot = Node_store.column store ~fill:(-1);
    sel_node = Array.make (Env.k env) (-1);
    sel_cnt = Array.make (Env.k env) 0;
    sel_len = 0;
    moves = Array.make (Env.k env) Env.stay;
  }

(* Indexed by anchor depth, not by node: doubles when a deeper anchor
   shows up. *)
let ensure_depth t d =
  let len = Array.length t.reanchor_counts in
  if d + 1 >= len then begin
    let counts = Array.make (max (d + 2) (2 * len)) 0 in
    Array.blit t.reanchor_counts 0 counts 0 len;
    t.reanchor_counts <- counts
  end

(* This round's entry of [pos] in the selection counts, or -1. *)
let sel_index t pos =
  let j = Node_store.unsafe_get t.sel_slot pos in
  if j >= 0 && j < t.sel_len && t.sel_node.(j) = pos then j else -1

let next_dangling t view pos =
  let nports = Partial_tree.num_ports view pos in
  (* The cursor may permanently skip non-dangling ports, but a dangling
     port selected by an earlier robot of the same round is only skipped
     transiently: if that robot's move is vetoed (reactive blocking,
     Remark 8) the port stays dangling and must remain reachable. *)
  let skip =
    ref (match sel_index t pos with -1 -> 0 | j -> t.sel_cnt.(j))
  in
  let commit = ref true in
  let c = ref (Node_store.unsafe_get t.dangle_cursor pos) in
  let found = ref (-1) in
  while !found < 0 && !c < nports do
    if Partial_tree.is_port_dangling view pos !c then begin
      if !skip > 0 then begin
        decr skip;
        commit := false
      end
      else found := !c
    end
    else if !commit then Node_store.unsafe_set t.dangle_cursor pos (!c + 1);
    incr c
  done;
  !found

let mark_selected t pos =
  match sel_index t pos with
  | -1 ->
      let j = t.sel_len in
      t.sel_node.(j) <- pos;
      t.sel_cnt.(j) <- 1;
      Node_store.unsafe_set t.sel_slot pos j;
      t.sel_len <- j + 1
  | j -> t.sel_cnt.(j) <- t.sel_cnt.(j) + 1

let pick_anchor t view =
  let d = Partial_tree.min_open_depth_raw view in
  if d < 0 then Partial_tree.root view
  else
    match t.policy with
    | Least_loaded ->
        (* Unique minimum (load, then id): independent of bucket order. *)
        let load = t.anchor_load in
        let best = ref (-1) and best_load = ref max_int in
        for i = 0 to Partial_tree.num_open_at_depth view d - 1 do
          let v = Partial_tree.nth_open_at_depth view d i in
          let lv = Node_store.unsafe_get load v in
          if lv < !best_load || (lv = !best_load && v < !best) then begin
            best := v;
            best_load := lv
          end
        done;
        !best
    | First_open ->
        let best = ref max_int in
        for i = 0 to Partial_tree.num_open_at_depth view d - 1 do
          let v = Partial_tree.nth_open_at_depth view d i in
          if v < !best then best := v
        done;
        !best
    | Random_open rng ->
        (* Canonical order: the draw maps to the sorted candidate set, so
           the result is independent of the open-bucket iteration order. *)
        Rng.pick rng (Array.of_list (Partial_tree.open_nodes_at_depth view d))

let add_load t v delta =
  let load = Node_store.unsafe_get t.anchor_load v in
  Node_store.unsafe_set t.anchor_load v (load + delta)

let ensure_route r needed =
  if Array.length r.route < needed then begin
    let cap = ref (Array.length r.route) in
    while !cap < needed do
      cap := 2 * !cap
    done;
    r.route <- Array.make !cap Env.stay
  end

(* Moves from [src] to [dst] along the discovered tree, written into the
   robot's reusable buffer: up to the lowest common ancestor, then down the
   port path read off the parent-port cache. With [src = root] this is the
   plain Algorithm 1 stack. *)
let fill_route view r src dst =
  (* Lift the deeper endpoint until both meet at the LCA, counting the
     source side's steps. *)
  let u = ref src and du = ref (Partial_tree.depth_of view src) in
  let w = ref dst and dw = ref (Partial_tree.depth_of view dst) in
  let ups = ref 0 in
  while !u <> !w do
    if !du >= !dw then begin
      u := Partial_tree.parent_id view !u;
      decr du;
      incr ups
    end
    else begin
      w := Partial_tree.parent_id view !w;
      decr dw
    end
  done;
  let ups = !ups in
  let len = ups + Partial_tree.depth_of view dst - !du in
  ensure_route r len;
  Array.fill r.route 0 ups Env.up;
  let w = ref dst in
  for j = len - 1 downto ups do
    let p = Partial_tree.parent_port view !w in
    if p < 0 then invalid_arg "Bfdn_algo.fill_route: broken parent link";
    r.route.(j) <- Env.via p;
    w := Partial_tree.parent_id view !w
  done;
  r.route_pos <- 0;
  r.route_len <- len

let reanchor t i =
  let view = Env.view t.env in
  let r = t.robots.(i) in
  let pos = Env.position t.env i in
  add_load t r.anchor (-1);
  let v = pick_anchor t view in
  r.anchor <- v;
  add_load t v 1;
  let d = Partial_tree.depth_of view v in
  ensure_depth t d;
  t.reanchor_counts.(d) <- t.reanchor_counts.(d) + 1;
  t.reanchors_total <- t.reanchors_total + 1;
  fill_route view r pos r.anchor

(* Pop the next breadth-first move off the robot's route. *)
let pop_route r =
  let m = r.route.(r.route_pos) in
  r.route_pos <- r.route_pos + 1;
  m

(* Fault-tolerance prepass: heartbeats, revivals and burials, before any
   move is decided, so this round's re-anchoring already sees the
   corrected anchor loads. A buried robot that is in fact alive (false
   positive under write drops, or not yet revived because its beat
   dropped again) still acts normally below — burial only affects anchor
   accounting and the termination condition, never legality. *)
let ft_prepass t f root =
  let round = Env.round t.env in
  let k = Env.k t.env in
  for i = 0 to k - 1 do
    if Env.allowed t.env i then begin
      Heartbeat.beat f.hb ~robot:i ~round;
      if f.buried.(i) && Heartbeat.last_seen f.hb i = round then begin
        f.buried.(i) <- false;
        if t.probe.Bfdn_obs.Probe.enabled then
          t.probe.Bfdn_obs.Probe.on_robot_revived ~robot:i ~round
      end
    end;
    if
      (not f.buried.(i))
      && Heartbeat.stale f.hb ~robot:i ~round ~after:f.suspect_after
    then begin
      let r = t.robots.(i) in
      add_load t r.anchor (-1);
      r.anchor <- root;
      add_load t root 1;
      (* Drop the pending route: if the robot is in fact alive it falls
         back to depth-next moves and walks home, which is always legal. *)
      r.route_pos <- 0;
      r.route_len <- 0;
      f.buried.(i) <- true;
      if t.probe.Bfdn_obs.Probe.enabled then
        t.probe.Bfdn_obs.Probe.on_robot_lost ~robot:i ~round
          ~latency:(Heartbeat.missed f.hb ~robot:i ~round)
    end
  done

let select t =
  let view = Env.view t.env in
  let root = Partial_tree.root view in
  let k = Env.k t.env in
  let moves = t.moves in
  Array.fill moves 0 k Env.stay;
  t.sel_len <- 0;
  (match t.ft with None -> () | Some f -> ft_prepass t f root);
  for i = 0 to k - 1 do
    if Env.allowed t.env i then begin
      let r = t.robots.(i) in
      let pos = Env.position t.env i in
      if pos = root then reanchor t i;
      if r.route_pos < r.route_len then
        (* Breadth-first move along the stacked route. *)
        moves.(i) <- pop_route r
      else begin
        (* Depth-next move. *)
        let p = next_dangling t view pos in
        if p >= 0 then begin
          mark_selected t pos;
          moves.(i) <- Env.via p
        end
        else if pos <> root then begin
          if t.shortcut && Partial_tree.min_open_depth_raw view >= 0 then
            (* Ablation: re-anchor in place instead of walking home first
               (the paper keeps the walk for the write-read model; see
               Section 2). *)
            reanchor t i;
          if r.route_pos < r.route_len then moves.(i) <- pop_route r
          else moves.(i) <- Env.up
        end
      end
    end
  done;
  moves

(* Fired once, the first time [finished] holds: hand the probe the
   reanchor statistics accumulated (at zero marginal cost) during the
   run. The copy is trimmed to the depths actually used. *)
let send_summary t =
  t.summary_sent <- true;
  let counts = t.reanchor_counts in
  let hi = ref (Array.length counts - 1) in
  while !hi >= 0 && counts.(!hi) = 0 do
    decr hi
  done;
  t.probe.Bfdn_obs.Probe.on_reanchor_summary ~total:t.reanchors_total
    ~by_depth:(Array.sub counts 0 (!hi + 1))

(* Crash-tolerant termination: explored, and every robot not presumed
   lost is back at the root. Waiting for buried robots would spin until
   the round bound whenever a crash is permanent. *)
let ft_finished f env =
  Env.fully_explored env
  &&
  let root = Partial_tree.root (Env.view env) in
  let ok = ref true in
  for i = 0 to Env.k env - 1 do
    if (not f.buried.(i)) && Env.position env i <> root then ok := false
  done;
  !ok

let algo t =
  {
    Bfdn_sim.Exec_env.select = (fun _ -> select t);
    finished =
      (fun env ->
        let fin =
          match t.ft with
          | None -> Env.fully_explored env && Env.all_at_root env
          | Some f -> ft_finished f env
        in
        if fin && t.probe.Bfdn_obs.Probe.enabled && not t.summary_sent then
          send_summary t;
        fin);
  }

let anchors t = Array.map (fun r -> r.anchor) t.robots

let reanchors_at_depth t d =
  if d < 0 || d >= Array.length t.reanchor_counts then 0
  else t.reanchor_counts.(d)

let reanchors_total t = t.reanchors_total

let check_claim4 t =
  let view = Env.view t.env in
  let anchor_list = Array.to_list (anchors t) in
  let covered v = List.exists (fun a -> Partial_tree.is_ancestor view a v) anchor_list in
  let all_open_covered acc v =
    acc && ((not (Partial_tree.is_open view v)) || covered v)
  in
  Partial_tree.fold_explored view ~init:true ~f:all_open_covered
