type robot = int

type move = Stay | Via_port of int | Back

type port_state = Unknown | Tree | Closed

(* Internal port encoding. *)
let st_unknown = 0
let st_tree = 1
let st_closed = 2

type t = {
  g : Graph.t;
  origin : int;
  k : int;
  dist : int array;
  explored : bool array;
  states : int array array;
  targets : int array array; (* far endpoint once not Unknown, else -1 *)
  tree_parent : (int * int) option array; (* (parent, port at this node) *)
  parent_down_port : int array; (* port at the parent leading here; -1 *)
  positions : int array;
  backtrack : int array; (* port to go back through, or -1 *)
  mutable round : int;
  mutable moves_total : int;
  mutable closed : int;
  mutable traversed : int;
  mutable unknown_total : int; (* unknown ports of explored nodes *)
  mutable num_explored : int;
  radius : int;
  fault : Bfdn_sim.Env.fault_hook;
}

let create ?(fault = Bfdn_sim.Env.fault_noop) g ~origin ~k =
  if k < 1 then invalid_arg "Graph_env.create: k must be >= 1";
  let n = Graph.n g in
  if origin < 0 || origin >= n then invalid_arg "Graph_env.create: bad origin";
  let dist = Graph.bfs_dist g origin in
  if Array.exists (fun d -> d = max_int) dist then
    invalid_arg "Graph_env.create: graph must be connected";
  let t =
    {
      g;
      origin;
      k;
      dist;
      explored = Array.make n false;
      states = Array.init n (fun v -> Array.make (Graph.degree g v) st_unknown);
      targets = Array.init n (fun v -> Array.make (Graph.degree g v) (-1));
      tree_parent = Array.make n None;
      parent_down_port = Array.make n (-1);
      positions = Array.make k origin;
      backtrack = Array.make k (-1);
      round = 0;
      moves_total = 0;
      closed = 0;
      traversed = 0;
      unknown_total = 0;
      num_explored = 0;
      radius = Graph.eccentricity g origin;
      fault;
    }
  in
  t.explored.(origin) <- true;
  t.num_explored <- 1;
  t.unknown_total <- Graph.degree g origin;
  t

let k t = t.k
let round t = t.round
let origin t = t.origin
let position t i = t.positions.(i)
let positions t = Array.copy t.positions
let is_explored t v = t.explored.(v)
let num_explored t = t.num_explored

let standing_on t v = Array.exists (fun p -> p = v) t.positions

let dist t v =
  if not (t.explored.(v) || standing_on t v) then
    invalid_arg "Graph_env.dist: node never visited";
  t.dist.(v)

let num_ports t v =
  if not t.explored.(v) then invalid_arg "Graph_env.num_ports: unexplored node";
  Graph.degree t.g v

let port t v p =
  if not t.explored.(v) then invalid_arg "Graph_env.port: unexplored node";
  match t.states.(v).(p) with
  | 0 -> Unknown
  | 1 -> Tree
  | _ -> Closed

let tree_parent t v =
  if not t.explored.(v) then invalid_arg "Graph_env.tree_parent: unexplored node";
  t.tree_parent.(v)

let needs_backtrack t i = t.backtrack.(i) >= 0

let unknown_ports t v =
  if not t.explored.(v) then invalid_arg "Graph_env.unknown_ports: unexplored node";
  let acc = ref [] in
  let states = t.states.(v) in
  for p = Array.length states - 1 downto 0 do
    if states.(p) = st_unknown then acc := p :: !acc
  done;
  !acc

let open_nodes_at_min_dist t =
  let best = ref max_int in
  let acc = ref [] in
  for v = 0 to Graph.n t.g - 1 do
    if t.explored.(v) && Array.exists (fun s -> s = st_unknown) t.states.(v) then begin
      let d = t.dist.(v) in
      if d < !best then begin
        best := d;
        acc := [ v ]
      end
      else if d = !best then acc := v :: !acc
    end
  done;
  !acc

let fully_explored t = t.unknown_total = 0
let all_at_origin t = Array.for_all (fun p -> p = t.origin) t.positions
let unknown_ports_total t = t.unknown_total

let allowed t i =
  not (t.fault.Bfdn_sim.Env.fh_enabled
      && t.fault.Bfdn_sim.Env.fh_down ~round:t.round ~robot:i)

let moves_total t = t.moves_total
let closed_edges t = t.closed
let traversed_edges t = t.traversed
let oracle_n_edges t = Graph.num_edges t.g
let oracle_n_nodes t = Graph.n t.g
let oracle_radius t = t.radius
let oracle_max_degree t = Graph.max_degree t.g

(* Mark an edge closed from both endpoints, maintaining the unknown-port
   accounting (only explored endpoints contribute). *)
let close_edge t u p w q =
  t.states.(u).(p) <- st_closed;
  t.targets.(u).(p) <- w;
  t.states.(w).(q) <- st_closed;
  t.targets.(w).(q) <- u;
  t.closed <- t.closed + 1;
  if t.explored.(u) then t.unknown_total <- t.unknown_total - 1;
  if t.explored.(w) then t.unknown_total <- t.unknown_total - 1

let explore_via_tree_edge t u p w q =
  t.states.(u).(p) <- st_tree;
  t.targets.(u).(p) <- w;
  t.states.(w).(q) <- st_tree;
  t.targets.(w).(q) <- u;
  t.unknown_total <- t.unknown_total - 1;
  t.explored.(w) <- true;
  t.num_explored <- t.num_explored + 1;
  t.tree_parent.(w) <- Some (u, q);
  t.parent_down_port.(w) <- p;
  let fresh = ref 0 in
  Array.iter (fun s -> if s = st_unknown then incr fresh) t.states.(w);
  t.unknown_total <- t.unknown_total + !fresh

let apply t moves =
  if Array.length moves <> t.k then invalid_arg "Graph_env.apply: wrong arity";
  (* Phase 1: validate against the pre-round state and record intents.
     A crashed robot's selection is discarded (forced [Stay]) before
     validation — mirrors the tree environment, where a down robot is
     simply not {!allowed} to act this round. *)
  let discoveries = Hashtbl.create 16 in
  (* key: canonical edge; value: (u, p, w, q, robots from u side, robots
     from w side). *)
  let intents = Array.make t.k None in
  for i = 0 to t.k - 1 do
    let pos = t.positions.(i) in
    match (if allowed t i then moves.(i) else Stay) with
    | Stay -> ()
    | Back ->
        if t.backtrack.(i) < 0 then
          invalid_arg "Graph_env.apply: Back with no pending backtrack";
        intents.(i) <- Some (Graph.neighbor t.g pos t.backtrack.(i))
    | Via_port p ->
        if t.backtrack.(i) >= 0 then
          invalid_arg "Graph_env.apply: must Back before moving again";
        if not t.explored.(pos) then
          invalid_arg "Graph_env.apply: only Back/Stay on an unexplored node";
        if p < 0 || p >= Graph.degree t.g pos then
          invalid_arg "Graph_env.apply: port out of range";
        let w = Graph.neighbor t.g pos p in
        let q = Graph.reverse_port t.g pos p in
        (match t.states.(pos).(p) with
        | s when s = st_closed ->
            invalid_arg "Graph_env.apply: closed edges are never used again"
        | s when s = st_tree -> ()
        | _ ->
            let key = (min pos w, max pos w) in
            let u_side = pos < w in
            let entry =
              match Hashtbl.find_opt discoveries key with
              | Some e -> e
              | None ->
                  let e =
                    if u_side then (pos, p, w, q, ref [], ref [])
                    else (w, q, pos, p, ref [], ref [])
                  in
                  Hashtbl.add discoveries key e;
                  e
            in
            let _, _, _, _, from_u, from_w = entry in
            if u_side then from_u := i :: !from_u else from_w := i :: !from_w);
        intents.(i) <- Some w
  done;
  (* Phase 2: move everyone. *)
  for i = 0 to t.k - 1 do
    match intents.(i) with
    | None -> ()
    | Some dst ->
        (match moves.(i) with Back -> t.backtrack.(i) <- -1 | _ -> ());
        t.positions.(i) <- dst;
        t.moves_total <- t.moves_total + 1
  done;
  (* Phase 3: settle discovered edges in a deterministic order. *)
  let pending = Hashtbl.fold (fun key entry acc -> (key, entry) :: acc) discoveries [] in
  let pending = List.sort compare pending in
  List.iter
    (fun (_, (u, p, w, q, from_u, from_w)) ->
      t.traversed <- t.traversed + 1;
      let crossed_both = !from_u <> [] && !from_w <> [] in
      if crossed_both then
        (* Two robots met head-on: the edge is closed and, by the identity
           swap argument, nobody backtracks (both endpoints are explored:
           robots stood there last round). *)
        close_edge t u p w q
      else begin
        let src, sport, dst, dport, crossers =
          if !from_u <> [] then (u, p, w, q, !from_u) else (w, q, u, p, !from_w)
        in
        if t.explored.(dst) || t.dist.(dst) <= t.dist.(src) then begin
          close_edge t src sport dst dport;
          (* Everybody who crossed must go back; from an unexplored far
             endpoint the node stays unexplored. *)
          List.iter (fun i -> t.backtrack.(i) <- dport) crossers
        end
        else explore_via_tree_edge t src sport dst dport
      end)
    pending;
  (* Crash-with-restart: a replacement robot comes online at the origin
     at the start of the next round. A teleport, not a traversal: move
     and edge metrics stay untouched, and any pending backtrack dies
     with the crashed robot. *)
  let fault = t.fault in
  if fault.Bfdn_sim.Env.fh_enabled && fault.Bfdn_sim.Env.fh_may_restart then
    for i = 0 to t.k - 1 do
      if fault.Bfdn_sim.Env.fh_restart ~round:t.round ~robot:i then begin
        t.positions.(i) <- t.origin;
        t.backtrack.(i) <- -1
      end
    done;
  t.round <- t.round + 1

let check_invariants t =
  let fail msg = invalid_arg ("Graph_env.check_invariants: " ^ msg) in
  let unknown = ref 0 in
  for v = 0 to Graph.n t.g - 1 do
    for p = 0 to Graph.degree t.g v - 1 do
      let w = Graph.neighbor t.g v p in
      let q = Graph.reverse_port t.g v p in
      (* port states are symmetric *)
      if t.states.(v).(p) <> t.states.(w).(q) then fail "asymmetric port state";
      if t.states.(v).(p) <> st_unknown && t.targets.(v).(p) <> w then
        fail "wrong resolved target";
      if t.explored.(v) && t.states.(v).(p) = st_unknown then incr unknown
    done;
    if t.explored.(v) && v <> t.origin then begin
      match t.tree_parent.(v) with
      | None -> fail "explored non-origin without a tree parent"
      | Some (parent, q) ->
          if not t.explored.(parent) then fail "tree parent unexplored";
          if t.dist.(parent) + 1 <> t.dist.(v) then fail "tree parent not closer";
          if Graph.neighbor t.g v q <> parent then fail "tree port mismatch";
          if t.states.(v).(q) <> st_tree then fail "tree edge not marked Tree"
    end
  done;
  if !unknown <> t.unknown_total then fail "unknown_total mismatch";
  Array.iteri
    (fun i b ->
      if b >= 0 then begin
        (* a pending backtrack port must be a closed edge at the robot *)
        let pos = t.positions.(i) in
        if b >= Graph.degree t.g pos then fail "backtrack port out of range"
      end)
    t.backtrack

let ports_from_origin t v =
  if not t.explored.(v) then
    invalid_arg "Graph_env.ports_from_origin: unexplored node";
  let rec up v acc =
    match t.tree_parent.(v) with
    | None -> acc
    | Some (parent, _) -> up parent (t.parent_down_port.(v) :: acc)
  in
  up v []
