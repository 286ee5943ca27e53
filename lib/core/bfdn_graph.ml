module Genv = Bfdn_graphs.Graph_env

type rstate = {
  mutable anchor : int;
  mutable stack : int list; (* ports left to traverse towards the anchor *)
}

type t = {
  env : Genv.t;
  robots : rstate array;
  anchor_load : int array;
  (* Monotone per-node cursor over unknown ports: tree/closed states are
     absorbing, and unknown ports selected this round resolve when the
     round is applied. *)
  cursor : int array;
  selected : (int * int, unit) Hashtbl.t;
}

let make env =
  let n = Genv.oracle_n_nodes env in
  let origin = Genv.origin env in
  {
    env;
    robots = Array.init (Genv.k env) (fun _ -> { anchor = origin; stack = [] });
    anchor_load =
      (let a = Array.make n 0 in
       a.(origin) <- Genv.k env;
       a);
    cursor = Array.make n 0;
    selected = Hashtbl.create 16;
  }


let next_unknown t pos =
  let nports = Genv.num_ports t.env pos in
  let rec scan c ~commit =
    if c >= nports then None
    else
      match Genv.port t.env pos c with
      | Genv.Unknown ->
          if Hashtbl.mem t.selected (pos, c) then scan (c + 1) ~commit:false
          else Some c
      | Genv.Tree | Genv.Closed ->
          if commit then t.cursor.(pos) <- c + 1;
          scan (c + 1) ~commit
  in
  scan t.cursor.(pos) ~commit:true

let reanchor t i =
  let r = t.robots.(i) in
  t.anchor_load.(r.anchor) <- t.anchor_load.(r.anchor) - 1;
  let v =
    match Genv.open_nodes_at_min_dist t.env with
    | [] -> Genv.origin t.env
    | candidates ->
        List.fold_left
          (fun best v ->
            if
              t.anchor_load.(v) < t.anchor_load.(best)
              || (t.anchor_load.(v) = t.anchor_load.(best) && v < best)
            then v
            else best)
          (List.hd candidates) candidates
  in
  r.anchor <- v;
  t.anchor_load.(v) <- t.anchor_load.(v) + 1;
  r.stack <- Genv.ports_from_origin t.env v

let select t =
  let origin = Genv.origin t.env in
  let k = Genv.k t.env in
  let moves = Array.make k Genv.Stay in
  Hashtbl.reset t.selected;
  for i = 0 to k - 1 do
    let r = t.robots.(i) in
    let pos = Genv.position t.env i in
    if not (Genv.allowed t.env i) then
      (* Crashed robot: leave its route state untouched — popping the
         stack for a robot the environment will pin in place would
         desynchronize it from its route. A restarted robot reappears at
         the origin, where the [pos = origin] branch below discards the
         stale stack by reanchoring. *)
      moves.(i) <- Genv.Stay
    else if Genv.needs_backtrack t.env i then moves.(i) <- Genv.Back
    else begin
      if pos = origin then reanchor t i;
      match r.stack with
      | p :: rest ->
          r.stack <- rest;
          moves.(i) <- Genv.Via_port p
      | [] -> (
          match next_unknown t pos with
          | Some p ->
              Hashtbl.replace t.selected (pos, p) ();
              moves.(i) <- Genv.Via_port p
          | None ->
              if pos <> origin then begin
                match Genv.tree_parent t.env pos with
                | Some (_, port_up) -> moves.(i) <- Genv.Via_port port_up
                | None -> ()
              end)
    end
  done;
  moves

let finished t = Genv.fully_explored t.env && Genv.all_at_origin t.env

let default_max_rounds env =
  (6 * Genv.oracle_n_edges env * (Genv.oracle_radius env + 2)) + 100

let exec_env t =
  let env = t.env in
  let pending = ref [||] in
  {
    Bfdn_sim.Exec_env.k = Genv.k env;
    round = (fun () -> Genv.round env);
    select = (fun () -> pending := select t);
    apply = (fun () -> Genv.apply env !pending);
    finished = (fun () -> finished t);
    round_limit = (fun () -> default_max_rounds env);
    explored = (fun () -> Genv.fully_explored env);
    at_home = (fun () -> Genv.all_at_origin env);
    moves_total = (fun () -> Genv.moves_total env);
    edge_events = (fun () -> Genv.traversed_edges env);
    revealed = (fun () -> Genv.num_explored env);
    frame =
      (fun () ->
        {
          Bfdn_sim.Trace.round = Genv.round env;
          positions = Genv.positions env;
          explored = Genv.num_explored env;
          dangling = Genv.unknown_ports_total env;
        });
    render =
      (fun () ->
        Printf.sprintf "round %d: explored %d/%d nodes, %d unknown ports\n"
          (Genv.round env) (Genv.num_explored env) (Genv.oracle_n_nodes env)
          (Genv.unknown_ports_total env));
  }
