module Env = Bfdn_sim.Env
module Partial_tree = Bfdn_sim.Partial_tree
module Mathx = Bfdn_util.Mathx

type walk_step = W_up | W_port of int

type instance =
  | Leaf of leaf
  | Divide of divide

and leaf = { l_root : int; l_budget : int; l_team : int list }

and divide = {
  d_root : int;
  d_level : int; (* >= 2 *)
  d_budget : int;
  d_n_iter : int;
  d_team : int list;
  mutable d_iter : int; (* completed iterations *)
  mutable d_roots : int list; (* sub-roots of the current iteration *)
  mutable d_subs : instance list;
  mutable d_deep : bool;
}

type t = {
  env : Env.t;
  ell : int;
  kstar : int;
  used : int; (* K = kstar^ell robots actually deployed *)
  (* shared per-robot state *)
  anchor : int array;
  stack : int list array; (* breadth-first ports towards the anchor *)
  walk : walk_step list array; (* team-reassignment itinerary *)
  dest : int array; (* walk destination (meaningful while walk <> []) *)
  active : bool array;
  (* shared machinery *)
  anchor_load : int array;
  dangle_cursor : int array;
  selected : (int * int, unit) Hashtbl.t;
  moves : Env.move array;
  mutable top : instance option;
  mutable j : int; (* Definition 13 call counter *)
  mutable calls : int;
}

let make ~ell env =
  if ell < 1 then invalid_arg "Bfdn_rec.make: ell must be >= 1";
  let k = Env.k env in
  let kstar = max 1 (Mathx.iroot k ell) in
  let used = Mathx.pow kstar ell in
  let n = Env.capacity env in
  let root = Partial_tree.root (Env.view env) in
  {
    env;
    ell;
    kstar;
    used;
    anchor = Array.make k root;
    stack = Array.make k [];
    walk = Array.make k [];
    dest = Array.make k root;
    active = Array.make k false;
    anchor_load =
      (let load = Array.make n 0 in
       load.(root) <- k;
       load);
    dangle_cursor = Array.make n 0;
    selected = Hashtbl.create 16;
    moves = Array.make k Env.Stay;
    top = None;
    j = 0;
    calls = 0;
  }

let calls_started t = t.calls
let robots_used t = t.used

let view t = Env.view t.env

(* ---- leaf (BFDN_1 restricted to T(root), anchors within [budget]) ---- *)

(* Minimum-relative-depth open nodes of T(root) within the depth budget. *)
let leaf_candidates t root budget =
  let v = view t in
  let base = Partial_tree.depth_of v root in
  let rec scan dd =
    if dd > base + budget then []
    else begin
      let nodes =
        List.filter
          (fun u -> Partial_tree.is_ancestor v root u)
          (Partial_tree.open_nodes_at_depth v dd)
      in
      if nodes = [] then scan (dd + 1) else nodes
    end
  in
  scan base

let leaf_reanchor t l i =
  let v = view t in
  t.anchor_load.(t.anchor.(i)) <- t.anchor_load.(t.anchor.(i)) - 1;
  match leaf_candidates t l.l_root l.l_budget with
  | [] ->
      t.anchor.(i) <- l.l_root;
      t.anchor_load.(l.l_root) <- t.anchor_load.(l.l_root) + 1;
      t.stack.(i) <- [];
      t.active.(i) <- false
  | candidates ->
      let best =
        List.fold_left
          (fun best u ->
            if
              t.anchor_load.(u) < t.anchor_load.(best)
              || (t.anchor_load.(u) = t.anchor_load.(best) && u < best)
            then u
            else best)
          (List.hd candidates) candidates
      in
      t.anchor.(i) <- best;
      t.anchor_load.(best) <- t.anchor_load.(best) + 1;
      let base = Partial_tree.depth_of v l.l_root in
      let rec drop n xs = if n = 0 then xs else match xs with [] -> [] | _ :: r -> drop (n - 1) r in
      t.stack.(i) <- drop base (Partial_tree.ports_from_root v best);
      t.active.(i) <- true

let next_dangling t pos =
  let v = view t in
  let nports = Partial_tree.num_ports v pos in
  (* Same transient-skip rule as Bfdn_algo.next_dangling: never commit the
     cursor past a dangling port that is merely selected this round. *)
  let rec scan c ~commit =
    if c >= nports then None
    else
      match Partial_tree.port v pos c with
      | Partial_tree.Dangling ->
          if Hashtbl.mem t.selected (pos, c) then scan (c + 1) ~commit:false
          else Some c
      | Partial_tree.To_parent | Partial_tree.Child _ ->
          if commit then t.dangle_cursor.(pos) <- c + 1;
          scan (c + 1) ~commit
  in
  scan t.dangle_cursor.(pos) ~commit:true

let leaf_step_robot t l i =
  let pos = Env.position t.env i in
  match t.walk.(i) with
  | W_up :: rest ->
      t.walk.(i) <- rest;
      t.moves.(i) <- Env.Up
  | W_port p :: rest ->
      t.walk.(i) <- rest;
      t.moves.(i) <- Env.Via_port p
  | [] -> (
      if pos = l.l_root && t.stack.(i) = [] then leaf_reanchor t l i;
      match t.stack.(i) with
      | p :: rest ->
          t.stack.(i) <- rest;
          t.moves.(i) <- Env.Via_port p
      | [] -> (
          match next_dangling t pos with
          | Some p ->
              Hashtbl.replace t.selected (pos, p) ();
              t.moves.(i) <- Env.Via_port p
          | None ->
              if pos <> l.l_root && pos <> Partial_tree.root (view t) then
                t.moves.(i) <- Env.Up))

(* ---- divide-depth (Algorithm 3) ---- *)

(* Where a robot logically is: its walk destination while re-assigned and
   in transit, its physical position otherwise. Team formation and
   sub-root collection must use this, or robots caught mid-walk get
   mis-filed and can escape their subtree. *)
let effective_position t i =
  if t.walk.(i) = [] then Env.position t.env i else t.dest.(i)

let active_count t team = List.fold_left (fun acc i -> acc + if t.active.(i) then 1 else 0) 0 team

(* Ancestor of the robot's position at absolute depth [target] (its
   "effective anchor" when iterations hand over sub-roots). *)
let effective_anchor t i target =
  let v = view t in
  let rec up u = if Partial_tree.depth_of v u <= target then u else up (Option.get (Partial_tree.parent v u)) in
  up (effective_position t i)

(* Itinerary from the robot's position to [dst]: up to their lowest common
   ancestor, then down the discovered port path (Algorithm 3 line 11; a
   robot can be re-teamed mid-walk, so the itinerary must work from any
   explored position). *)
let walk_itinerary t i dst =
  let v = view t in
  let pos = Env.position t.env i in
  let rec lift u du w dw ups =
    if u = w then (u, ups)
    else if du >= dw then lift (Option.get (Partial_tree.parent v u)) (du - 1) w dw (ups + 1)
    else lift u du (Option.get (Partial_tree.parent v w)) (dw - 1) ups
  in
  let lca, ups =
    lift pos (Partial_tree.depth_of v pos) dst (Partial_tree.depth_of v dst) 0
  in
  let base = Partial_tree.depth_of v lca in
  let rec drop n xs = if n = 0 then xs else match xs with [] -> [] | _ :: r -> drop (n - 1) r in
  let downs = List.map (fun p -> W_port p) (drop base (Partial_tree.ports_from_root v dst)) in
  List.init ups (fun _ -> W_up) @ downs

let rec make_instance _t ~level ~root ~budget ~team =
  if level <= 1 then Leaf { l_root = root; l_budget = budget; l_team = team }
  else begin
    let n_iter = max 1 (Mathx.iroot budget level) in
    Divide
      {
        d_root = root;
        d_level = level;
        d_budget = budget;
        d_n_iter = n_iter;
        d_team = team;
        d_iter = 0;
        d_roots = [ root ];
        d_subs = [];
        d_deep = false;
      }
  end

(* Set up iteration [d.d_iter + 1]: partition the team over the sub-roots,
   send re-assigned robots walking, build sub-instances. *)
and divide_setup t d =
  let v = view t in
  let k' = List.length d.d_team / t.kstar in
  let roots =
    (* The sub-roots must span disjoint subtrees (overlapping teams would
       step a robot twice per round, corrupting its state): keep only the
       antichain of shallowest roots. At most n_team = kstar of them are
       used; the paper guarantees |R| <= k*. *)
    let uniq = List.sort_uniq compare d.d_roots in
    let antichain =
      List.filter
        (fun r ->
          not
            (List.exists
               (fun r' -> r' <> r && Partial_tree.is_ancestor v r' r)
               uniq))
        uniq
    in
    let rec take n = function [] -> [] | x :: r -> if n = 0 then [] else x :: take (n - 1) r in
    take t.kstar antichain
  in
  let assigned = Hashtbl.create 16 in
  let adopted r =
    List.filter
      (fun i ->
        t.active.(i)
        && (not (Hashtbl.mem assigned i))
        && Partial_tree.is_ancestor v r (effective_position t i))
      d.d_team
  in
  let teams =
    List.map
      (fun r ->
        let mine = adopted r in
        List.iter (fun i -> Hashtbl.replace assigned i ()) mine;
        (r, mine))
      roots
  in
  let fresh = List.filter (fun i -> not (Hashtbl.mem assigned i)) d.d_team in
  let pool = ref fresh in
  let teams =
    List.map
      (fun (r, mine) ->
        let missing = max 0 (k' - List.length mine) in
        let rec grab n acc =
          if n = 0 then acc
          else
            match !pool with
            | [] -> acc
            | i :: rest ->
                pool := rest;
                t.active.(i) <- true;
                t.walk.(i) <- walk_itinerary t i r;
                t.dest.(i) <- r;
                t.stack.(i) <- [];
                t.anchor_load.(t.anchor.(i)) <- t.anchor_load.(t.anchor.(i)) - 1;
                t.anchor.(i) <- r;
                t.anchor_load.(r) <- t.anchor_load.(r) + 1;
                grab (n - 1) (i :: acc)
        in
        (r, grab missing mine))
      teams
  in
  (* Robots in no team wait inactive where they stand. *)
  List.iter (fun i -> t.active.(i) <- false) !pool;
  let budget' = d.d_budget / d.d_n_iter in
  d.d_subs <-
    List.map
      (fun (r, team) ->
        make_instance t ~level:(d.d_level - 1) ~root:r ~budget:budget' ~team)
      teams;
  d.d_iter <- d.d_iter + 1

(* One synchronous decision round for an instance. Returns [true] while the
   instance wants to continue (top-level: false = call finished). *)
and step_instance t inst =
  match inst with
  | Leaf l ->
      List.iter (fun i -> leaf_step_robot t l i) l.l_team;
      (* Definition 13: a top-level BFDN_1 call is interrupted as soon as
         it would run deep — no dangling edge within the depth budget —
         without waiting for robots still finishing their subtrees (they
         carry over to the next, deeper call). *)
      leaf_candidates t l.l_root l.l_budget <> []
      || List.exists (fun i -> t.active.(i) && t.walk.(i) <> []) l.l_team
  | Divide d ->
      if d.d_subs = [] && not d.d_deep then divide_setup t d;
      List.iter (fun sub -> ignore (step_instance t sub)) d.d_subs;
      if d.d_deep then active_count t d.d_team > 0
      else begin
        if active_count t d.d_team < t.kstar then begin
          if d.d_iter < d.d_n_iter then begin
            (* collect sub-roots for the next iteration from the robots
               still active, at the depth this iteration closed *)
            let v = view t in
            let target =
              Partial_tree.depth_of v d.d_root + (d.d_iter * (d.d_budget / d.d_n_iter))
            in
            d.d_roots <-
              List.sort_uniq compare
                (List.filter_map
                   (fun i ->
                     if t.active.(i) then Some (effective_anchor t i target) else None)
                   d.d_team);
            d.d_subs <- [];
            if d.d_roots = [] then d.d_roots <- [ d.d_root ];
            true
          end
          else begin
            d.d_deep <- true;
            active_count t d.d_team > 0
          end
        end
        else true
      end

let start_call t =
  t.j <- t.j + 1;
  t.calls <- t.calls + 1;
  let budget = Mathx.pow 2 (t.j * t.ell) in
  let team = List.init t.used (fun i -> i) in
  let root = Partial_tree.root (view t) in
  (* adopt deep robots: everyone not at the root is mid-exploration *)
  List.iter (fun i -> t.active.(i) <- Env.position t.env i <> root) team;
  t.top <- Some (make_instance t ~level:t.ell ~root ~budget ~team)

let select t =
  Hashtbl.reset t.selected;
  Array.fill t.moves 0 (Env.k t.env) Env.Stay;
  (match t.top with
  | None -> start_call t
  | Some _ -> ());
  (match t.top with
  | Some inst ->
      let continue =
        match inst with
        | Leaf _ -> step_instance t inst
        | Divide d ->
            let keep = step_instance t inst in
            (* Definition 13: interrupt right after the last iteration,
               without running deep at the top level. *)
            if d.d_deep then false else keep
      in
      if not continue then t.top <- None
  | None -> ());
  Array.copy t.moves

let algo t =
  {
    Bfdn_sim.Exec_env.select = (fun _ -> select t);
    finished = Env.fully_explored;
  }
