module Tree = Bfdn_trees.Tree
module Pqueue = Bfdn_util.Pqueue

type robot = int

type action = Park | Go_up | Go_port of int

type t = {
  hidden : Tree.t;
  view : Partial_tree.t;
  k : int;
  speeds : float array;
  positions : int array;
  in_transit : bool array; (* robot has a pending arrival event *)
  claims : (int * int, unit) Hashtbl.t;
  events : (robot * int * int option) Pqueue.t;
      (* (robot, destination, crossed dangling port at the source) *)
  mutable now : float;
  mutable makespan : float;
  travelled : int array;
  mutable restarts : int;
}

type decide = t -> robot -> action

let create ?speeds hidden ~k =
  if k < 1 then invalid_arg "Async_env.create: k must be >= 1";
  let speeds =
    match speeds with
    | None -> Array.make k 1.0
    | Some s ->
        if Array.length s <> k then invalid_arg "Async_env.create: wrong speeds arity";
        if Array.exists (fun x -> x <= 0.0) s then
          invalid_arg "Async_env.create: speeds must be positive";
        Array.copy s
  in
  let root = Tree.root hidden in
  let view = Partial_tree.Internal.create ~hidden_n:(Tree.n hidden) ~root in
  Partial_tree.Internal.reveal_root view ~num_ports:(Tree.degree hidden root);
  {
    hidden;
    view;
    k;
    speeds;
    positions = Array.make k root;
    in_transit = Array.make k false;
    claims = Hashtbl.create 16;
    events = Pqueue.create ();
    now = 0.0;
    makespan = 0.0;
    travelled = Array.make k 0;
    restarts = 0;
  }

let view t = t.view
let k t = t.k
let capacity t = Tree.n t.hidden
let now t = t.now
let position t i = t.positions.(i)
let claimed t v p = Hashtbl.mem t.claims (v, p)
let fully_explored t = Partial_tree.complete t.view

let all_at_root t =
  let root = Partial_tree.root t.view in
  Array.for_all (fun p -> p = root) t.positions

let makespan t = t.makespan
let distance_travelled t i = t.travelled.(i)
let moves_total t = Array.fold_left ( + ) 0 t.travelled
let positions t = Array.copy t.positions
let restarts t = t.restarts
let min_speed t = Array.fold_left min t.speeds.(0) t.speeds
let oracle_depth t = Tree.depth t.hidden

(* Launch a traversal: schedule the arrival event and claim dangling
   ports. *)
let depart t i action =
  let pos = t.positions.(i) in
  match action with
  | Park -> false
  | Go_up -> (
      match Partial_tree.parent t.view pos with
      | None -> invalid_arg "Async_env: Go_up at the root"
      | Some parent ->
          Pqueue.push t.events (t.now +. (1.0 /. t.speeds.(i))) (i, parent, None);
          t.in_transit.(i) <- true;
          true)
  | Go_port p ->
      if p < 0 || p >= Partial_tree.num_ports t.view pos then
        invalid_arg "Async_env: port out of range";
      let crossed, dst =
        match Partial_tree.port t.view pos p with
        | Partial_tree.To_parent -> (None, Option.get (Partial_tree.parent t.view pos))
        | Partial_tree.Child c -> (None, c)
        | Partial_tree.Dangling ->
            if Hashtbl.mem t.claims (pos, p) then
              invalid_arg "Async_env: dangling port already claimed";
            Hashtbl.replace t.claims (pos, p) ();
            (Some p, Tree.neighbor_via_port t.hidden pos p)
      in
      Pqueue.push t.events (t.now +. (1.0 /. t.speeds.(i))) (i, dst, crossed);
      t.in_transit.(i) <- true;
      true

(* The driver factors {!run}'s event pump into resumable horizons so a
   synchronous round loop ({!Exec_env.run}) can step the simulation one
   unit of continuous time at a time, interleaving fault checks between
   horizons. [run ~until:infinity] over the driver replays the original
   monolithic loop event-for-event (the queue drains in the same order),
   so existing callers of {!run} are bit-identical. *)
type driver = {
  d_t : t;
  d_decide : decide;
  d_fault : Env.fault_hook;
  d_on_restart : (robot -> unit) option;
  d_parked : bool array;
  d_max_events : int;
  mutable d_events : int;
}

let d_ask d i =
  let t = d.d_t in
  if not t.in_transit.(i) then begin
    let fault = d.d_fault in
    if fault.Env.fh_enabled && fault.Env.fh_down ~round:(int_of_float t.now) ~robot:i
    then
      (* Crashed while grounded: forced park until the window closes
         (checked again at the next horizon). *)
      d.d_parked.(i) <- true
    else if depart t i (d.d_decide t i) then d.d_parked.(i) <- false
    else d.d_parked.(i) <- true
  end

let driver ?(max_events = 10_000_000) ?(fault = Env.fault_noop) ?on_restart
    decide t =
  let d =
    {
      d_t = t;
      d_decide = decide;
      d_fault = fault;
      d_on_restart = on_restart;
      d_parked = Array.make t.k false;
      d_max_events = max_events;
      d_events = 0;
    }
  in
  (* Initial decisions in robot order. *)
  for i = 0 to t.k - 1 do
    d_ask d i
  done;
  d

let advance d ~until =
  let t = d.d_t in
  let continue = ref true in
  while !continue do
    match Pqueue.peek t.events with
    | Some (time, _) when time <= until -> (
        match Pqueue.pop t.events with
        | None -> assert false
        | Some (time, (i, dst, crossed)) ->
            d.d_events <- d.d_events + 1;
            if d.d_events > d.d_max_events then
              failwith "Async_env.run: event limit exceeded";
            t.now <- time;
            t.makespan <- time;
            let src = t.positions.(i) in
            t.positions.(i) <- dst;
            t.in_transit.(i) <- false;
            t.travelled.(i) <- t.travelled.(i) + 1;
            let discovered =
              match crossed with
              | None -> false
              | Some p ->
                  Hashtbl.remove t.claims (src, p);
                  Partial_tree.Internal.reveal_child t.view src p dst
                    ~num_ports:(Tree.degree t.hidden dst);
                  true
            in
            d_ask d i;
            (* New frontier: wake the parked robots (in robot order). *)
            if discovered then
              for j = 0 to t.k - 1 do
                if d.d_parked.(j) then d_ask d j
              done)
    | _ -> continue := false
  done;
  (* Horizon boundary: advance the clock, run the restart sweep, then
     re-ask every parked robot (crash windows may have closed; restarted
     robots need a fresh route). Skipped for the monolithic
     [~until:infinity] drain, which has no boundaries. *)
  if until < infinity then begin
    if until > t.now then t.now <- until;
    let fault = d.d_fault in
    if fault.Env.fh_enabled && fault.Env.fh_may_restart then begin
      let root = Partial_tree.root t.view in
      let round = int_of_float until in
      for i = 0 to t.k - 1 do
        if
          (not t.in_transit.(i))
          && fault.Env.fh_restart ~round ~robot:i
          && t.positions.(i) <> root
        then begin
          (* Replacement robot at the root; a teleport, not a traversal,
             so move metrics stay untouched. *)
          t.positions.(i) <- root;
          t.restarts <- t.restarts + 1;
          (match d.d_on_restart with None -> () | Some f -> f i);
          d.d_parked.(i) <- true
        end
      done
    end;
    for i = 0 to t.k - 1 do
      if d.d_parked.(i) then d_ask d i
    done
  end

let idle d =
  Pqueue.is_empty d.d_t.events
  && Array.for_all (fun b -> not b) d.d_t.in_transit

let run ?max_events decide t =
  let d = driver ?max_events decide t in
  advance d ~until:infinity
