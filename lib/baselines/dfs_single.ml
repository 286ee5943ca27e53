module Env = Bfdn_sim.Env
module Partial_tree = Bfdn_sim.Partial_tree

let make env =
  let view = Env.view env in
  let n = Env.capacity env in
  let root = Partial_tree.root view in
  (* Monotone cursor over each node's ports (everything before it has been
     tried); gives O(1) amortized next-dangling lookups. *)
  let cursor = Array.make n 0 in
  (* One move array per run: robots other than 0 always stay. *)
  let moves = Array.make (Env.k env) Env.stay in
  let select env =
    let pos = Env.position env 0 in
    let nports = Partial_tree.num_ports view pos in
    (* [-2] is a dangling port's code. *)
    while
      cursor.(pos) < nports && Partial_tree.port_code view pos cursor.(pos) <> -2
    do
      cursor.(pos) <- cursor.(pos) + 1
    done;
    let p = cursor.(pos) in
    moves.(0) <-
      (if p < nports then begin
         cursor.(pos) <- p + 1;
         Env.via p
       end
       else if pos <> root then Env.up
       else Env.stay);
    moves
  in
  {
    Bfdn_sim.Exec_env.select;
    finished = (fun env -> Env.fully_explored env && Env.all_at_root env);
  }
