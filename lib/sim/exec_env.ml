module Clock = Bfdn_util.Clock
module Probe = Bfdn_obs.Probe

type algo = {
  select : Env.t -> Env.move array;
  finished : Env.t -> bool;
}

type result = {
  rounds : int;
  explored : bool;
  at_root : bool;
  moves : int;
  edge_events : int;
  hit_round_limit : bool;
}

let pp_result ppf r =
  Format.fprintf ppf "rounds=%d explored=%b at_root=%b moves=%d events=%d%s"
    r.rounds r.explored r.at_root r.moves r.edge_events
    (if r.hit_round_limit then " (HIT ROUND LIMIT)" else "")

type t = {
  k : int;
  round : unit -> int;
  select : unit -> unit;
  apply : unit -> unit;
  finished : unit -> bool;
  round_limit : unit -> int;
  explored : unit -> bool;
  at_home : unit -> bool;
  moves_total : unit -> int;
  edge_events : unit -> int;
  revealed : unit -> int;
  frame : unit -> Trace.frame;
  render : unit -> string;
}

(* The termination bound of Section 2.1: the divergence guard of every
   tree-shaped world. *)
let round_bound ~n ~depth = (3 * n * (depth + 2)) + 100

let default_max_rounds env =
  round_bound ~n:(Env.oracle_n env) ~depth:(Env.oracle_depth env)

let run ?max_rounds ?(on_round = fun _ -> ()) ?(probe = Probe.noop) x =
  let limit =
    match max_rounds with Some m -> fun () -> m | None -> x.round_limit
  in
  (* With an enabled probe, each round's three phases (finished-check,
     select, apply) are bracketed with monotonic clock reads. The phases
     are contiguous, so each end stamp doubles as the next start: 3 clock
     reads per round. The plain loop reads no clock at all. *)
  let timed = probe.Probe.enabled in
  let t = ref (if timed then Clock.now_ns () else 0) in
  let stamp phase =
    let now = Clock.now_ns () in
    probe.Probe.on_phase phase (now - !t);
    t := now
  in
  (* The probe's per-round deltas, against the totals after the previous
     round. A robot makes at most one move per round, so the idle count
     is [k - moved]; the clamp covers an async horizon, in which a fast
     robot can cross several edges. *)
  let moves0 = ref (if timed then x.moves_total () else 0) in
  let events0 = ref (if timed then x.edge_events () else 0) in
  let revealed0 = ref (if timed then x.revealed () else 0) in
  let report () =
    let moves = x.moves_total ()
    and events = x.edge_events ()
    and revealed = x.revealed () in
    let moved = min (moves - !moves0) x.k in
    probe.Probe.on_round ~round:(x.round ()) ~moved ~idle:(x.k - moved)
      ~revealed:(revealed - !revealed0) ~edge_events:(events - !events0);
    moves0 := moves;
    events0 := events;
    revealed0 := revealed
  in
  let hit_limit = ref false in
  let continue = ref true in
  while !continue do
    let fin = x.finished () in
    if timed then stamp Probe.Finished_check;
    if fin then continue := false
    else if x.round () >= limit () then begin
      hit_limit := true;
      continue := false
    end
    else begin
      x.select ();
      if timed then stamp Probe.Select;
      x.apply ();
      if timed then begin
        report ();
        stamp Probe.Apply
      end;
      on_round x
    end
  done;
  {
    rounds = x.round ();
    explored = x.explored ();
    at_root = x.at_home ();
    moves = x.moves_total ();
    edge_events = x.edge_events ();
    hit_round_limit = !hit_limit;
  }

let of_env (algo : algo) env =
  let pending = ref [||] in
  (* The bound grows as a lazily materialized world reveals nodes, and
     the world's stats change at reveals alone: recompute it only in a
     round that revealed one. *)
  let round_limit =
    let seen = ref (-1) and m = ref 0 in
    fun () ->
      let explored = Partial_tree.num_explored (Env.view env) in
      if explored <> !seen then begin
        seen := explored;
        m := default_max_rounds env
      end;
      !m
  in
  {
    k = Env.k env;
    round = (fun () -> Env.round env);
    select = (fun () -> pending := algo.select env);
    apply = (fun () -> Env.apply env !pending);
    finished = (fun () -> algo.finished env);
    round_limit;
    explored = (fun () -> Env.fully_explored env);
    at_home = (fun () -> Env.all_at_root env);
    moves_total = (fun () -> Env.moves_total env);
    edge_events = (fun () -> Env.edge_events env);
    revealed = (fun () -> Partial_tree.num_explored (Env.view env));
    frame = (fun () -> Trace.frame_of_env env);
    render = (fun () -> Trace.render_frame env);
  }

let of_async ?(fault = Env.fault_noop) ?on_restart decide aenv =
  let d = Async_env.driver ~fault ?on_restart decide aenv in
  let view = Async_env.view aenv in
  let round = ref 0 in
  let limit =
    (* The synchronous divergence guard, stretched by the slowest robot:
       a unit edge takes [1/speed] horizons. *)
    lazy
      (let base =
         round_bound ~n:(Async_env.capacity aenv)
           ~depth:(Async_env.oracle_depth aenv)
       in
       int_of_float (ceil (float_of_int base /. Async_env.min_speed aenv)))
  in
  {
    k = Async_env.k aenv;
    round = (fun () -> !round);
    select = (fun () -> ());
    apply =
      (fun () ->
        incr round;
        Async_env.advance d ~until:(float_of_int !round));
    finished =
      (fun () -> Async_env.fully_explored aenv && Async_env.all_at_root aenv);
    round_limit = (fun () -> Lazy.force limit);
    explored = (fun () -> Async_env.fully_explored aenv);
    at_home = (fun () -> Async_env.all_at_root aenv);
    moves_total = (fun () -> Async_env.moves_total aenv);
    edge_events = (fun () -> Partial_tree.num_explored view - 1);
    revealed = (fun () -> Partial_tree.num_explored view);
    frame =
      (fun () ->
        {
          Trace.round = !round;
          positions = Async_env.positions aenv;
          explored = Partial_tree.num_explored view;
          dangling = Partial_tree.num_dangling view;
        });
    render =
      (fun () ->
        Printf.sprintf "t=%.2f explored=%d/%d dangling=%d\n"
          (Async_env.now aenv)
          (Partial_tree.num_explored view)
          (Async_env.capacity aenv)
          (Partial_tree.num_dangling view));
  }
