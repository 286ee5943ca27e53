type algo = Exec_env.algo = {
  name : string;
  select : Env.t -> Env.move array;
  finished : Env.t -> bool;
}

type result = Exec_env.result = {
  rounds : int;
  explored : bool;
  at_root : bool;
  moves : int;
  edge_events : int;
  hit_round_limit : bool;
}

let run ?max_rounds ?on_round ?probe algo env =
  let on_round = Option.map (fun f (_ : Exec_env.t) -> f env) on_round in
  Exec_env.run ?max_rounds ?on_round ?probe (Exec_env.of_env algo env)

let pp_result ppf r =
  Format.fprintf ppf "rounds=%d explored=%b at_root=%b moves=%d events=%d%s"
    r.rounds r.explored r.at_root r.moves r.edge_events
    (if r.hit_round_limit then " (HIT ROUND LIMIT)" else "")
