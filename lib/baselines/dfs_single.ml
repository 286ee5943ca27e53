module Env = Bfdn_sim.Env
module Partial_tree = Bfdn_sim.Partial_tree

let make env =
  let view = Env.view env in
  let n = Env.capacity env in
  (* Monotone cursor over each node's ports (everything before it has been
     tried); gives O(1) amortized next-dangling lookups. *)
  let cursor = Array.make n 0 in
  let next_dangling pos =
    let nports = Partial_tree.num_ports view pos in
    let rec scan () =
      let c = cursor.(pos) in
      if c >= nports then None
      else
        match Partial_tree.port view pos c with
        | Partial_tree.Dangling -> Some c
        | Partial_tree.To_parent | Partial_tree.Child _ ->
            cursor.(pos) <- c + 1;
            scan ()
    in
    scan ()
  in
  let select env =
    let moves = Array.make (Env.k env) Env.stay in
    let pos = Env.position env 0 in
    (match next_dangling pos with
    | Some p ->
        cursor.(pos) <- p + 1;
        moves.(0) <- Env.via p
    | None -> if pos <> Partial_tree.root view then moves.(0) <- Env.up);
    moves
  in
  {
    Bfdn_sim.Exec_env.select;
    finished = (fun env -> Env.fully_explored env && Env.all_at_root env);
  }
