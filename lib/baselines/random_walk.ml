module Env = Bfdn_sim.Env
module Partial_tree = Bfdn_sim.Partial_tree
module Rng = Bfdn_util.Rng

let make ~rng env =
  let view = Env.view env in
  let select env =
    Array.init (Env.k env) (fun i ->
        let pos = Env.position env i in
        let nports = Partial_tree.num_ports view pos in
        if nports = 0 then Env.Stay else Env.Via_port (Rng.int rng nports))
  in
  {
    Bfdn_sim.Exec_env.select;
    finished = Env.fully_explored;
  }
