module Aenv = Bfdn_sim.Async_env
module Partial_tree = Bfdn_sim.Partial_tree

type rstate = { mutable anchor : int; mutable stack : int list }

type t = {
  env : Aenv.t;
  robots : rstate array;
  anchor_load : int array;
  (* Monotone per-node cursor; claimed dangling ports may be skipped with
     commitment since their traversal always completes (no vetoes in the
     continuous-time model). *)
  dangle_cursor : int array;
}

let make env =
  let view = Aenv.view env in
  let root = Partial_tree.root view in
  let k = Aenv.k env in
  let n = Aenv.capacity env in
  {
    env;
    robots = Array.init k (fun _ -> { anchor = root; stack = [] });
    anchor_load =
      (let load = Array.make n 0 in
       load.(root) <- k;
       load);
    dangle_cursor = Array.make n 0;
  }

let next_unclaimed t pos =
  let view = Aenv.view t.env in
  let nports = Partial_tree.num_ports view pos in
  let rec scan () =
    let c = t.dangle_cursor.(pos) in
    if c >= nports then None
    else
      match Partial_tree.port view pos c with
      | Partial_tree.Dangling ->
          if Aenv.claimed t.env pos c then begin
            t.dangle_cursor.(pos) <- c + 1;
            scan ()
          end
          else Some c
      | Partial_tree.To_parent | Partial_tree.Child _ ->
          t.dangle_cursor.(pos) <- c + 1;
          scan ()
  in
  scan ()

let reanchor t i =
  let view = Aenv.view t.env in
  let r = t.robots.(i) in
  t.anchor_load.(r.anchor) <- t.anchor_load.(r.anchor) - 1;
  match Partial_tree.open_nodes_at_min_depth view with
  | [] ->
      t.anchor_load.(Partial_tree.root view) <-
        t.anchor_load.(Partial_tree.root view) + 1;
      r.anchor <- Partial_tree.root view;
      r.stack <- [];
      false
  | candidates ->
      let best =
        List.fold_left
          (fun best v ->
            if
              t.anchor_load.(v) < t.anchor_load.(best)
              || (t.anchor_load.(v) = t.anchor_load.(best) && v < best)
            then v
            else best)
          (List.hd candidates) candidates
      in
      r.anchor <- best;
      t.anchor_load.(best) <- t.anchor_load.(best) + 1;
      r.stack <- Partial_tree.ports_from_root view best;
      true

let decide t env i =
  let view = Aenv.view env in
  let root = Partial_tree.root view in
  let r = t.robots.(i) in
  let pos = Aenv.position env i in
  if pos = root && r.stack = [] && not (reanchor t i) then Aenv.Park
  else begin
    match r.stack with
    | p :: rest ->
        r.stack <- rest;
        Aenv.Go_port p
    | [] -> (
        match next_unclaimed t pos with
        | Some p -> Aenv.Go_port p
        | None -> if pos = root then Aenv.Park else Aenv.Go_up)
  end

let decide t = decide t

let notify_restart t i =
  (* The replacement robot materializes at the root: its route state died
     with the crashed one. Dropping the stack means the next [decide]
     lands in the [pos = root && stack = []] branch and reanchors. *)
  let view = Aenv.view t.env in
  let root = Partial_tree.root view in
  let r = t.robots.(i) in
  t.anchor_load.(r.anchor) <- t.anchor_load.(r.anchor) - 1;
  r.anchor <- root;
  t.anchor_load.(root) <- t.anchor_load.(root) + 1;
  r.stack <- []
