(** Driving an online algorithm against a tree {!Env}: the tree-typed
    front of the one round loop, {!Exec_env.run}. *)

type algo = Exec_env.algo = {
  name : string;
  select : Env.t -> Env.move array;
      (** Produce this round's selection for every robot. Must not mutate
          the environment. *)
  finished : Env.t -> bool;
      (** The algorithm's own termination condition, evaluated before each
          round. *)
}

type result = Exec_env.result = {
  rounds : int;
  explored : bool;  (** all edges discovered and traversed *)
  at_root : bool;  (** all robots back at the root on termination *)
  moves : int;  (** total edge traversals *)
  edge_events : int;
  hit_round_limit : bool;
}

val run :
  ?max_rounds:int ->
  ?on_round:(Env.t -> unit) ->
  ?probe:Bfdn_obs.Probe.t ->
  algo ->
  Env.t ->
  result
(** [Exec_env.run (Exec_env.of_env algo env)]: query [select] and
    {!Env.apply} until [finished] or [max_rounds] is reached (default:
    the termination bound). [on_round] is invoked after every applied
    round; an enabled [probe] receives the per-phase clock brackets
    without altering the run. *)

val pp_result : Format.formatter -> result -> unit
