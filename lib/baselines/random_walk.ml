module Env = Bfdn_sim.Env
module Partial_tree = Bfdn_sim.Partial_tree
module Rng = Bfdn_util.Rng

let make ~rng env =
  let view = Env.view env in
  (* One move array per run, rewritten whole each round. *)
  let moves = Array.make (Env.k env) Env.stay in
  let select env =
    for i = 0 to Array.length moves - 1 do
      let pos = Env.position env i in
      let nports = Partial_tree.num_ports view pos in
      moves.(i) <- (if nports = 0 then Env.stay else Env.via (Rng.int rng nports))
    done;
    moves
  in
  {
    Bfdn_sim.Exec_env.select;
    finished = Env.fully_explored;
  }
