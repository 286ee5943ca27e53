module Clock = Bfdn_util.Clock

type phase = Select | Apply | Finished_check

type t = {
  enabled : bool;
  on_round :
    round:int -> moved:int -> idle:int -> revealed:int -> edge_events:int -> unit;
  on_phase : phase -> int -> unit;
  on_reanchor_summary : total:int -> by_depth:int array -> unit;
  on_robot_lost : robot:int -> round:int -> latency:int -> unit;
  on_robot_revived : robot:int -> round:int -> unit;
  on_job : worker:int -> wait_ns:int -> run_ns:int -> unit;
}

let noop =
  {
    enabled = false;
    on_round = (fun ~round:_ ~moved:_ ~idle:_ ~revealed:_ ~edge_events:_ -> ());
    on_phase = (fun _ _ -> ());
    on_reanchor_summary = (fun ~total:_ ~by_depth:_ -> ());
    on_robot_lost = (fun ~robot:_ ~round:_ ~latency:_ -> ());
    on_robot_revived = (fun ~robot:_ ~round:_ -> ());
    on_job = (fun ~worker:_ ~wait_ns:_ ~run_ns:_ -> ());
  }

let make ?on_round ?on_phase ?on_reanchor_summary ?on_robot_lost
    ?on_robot_revived ?on_job () =
  {
    enabled = true;
    on_round = Option.value on_round ~default:noop.on_round;
    on_phase = Option.value on_phase ~default:noop.on_phase;
    on_reanchor_summary =
      Option.value on_reanchor_summary ~default:noop.on_reanchor_summary;
    on_robot_lost = Option.value on_robot_lost ~default:noop.on_robot_lost;
    on_robot_revived =
      Option.value on_robot_revived ~default:noop.on_robot_revived;
    on_job = Option.value on_job ~default:noop.on_job;
  }

let phase_name = function
  | Select -> "select"
  | Apply -> "apply"
  | Finished_check -> "finished_check"

(* The counter a metrics probe sums a phase's time into. *)
let phase_counter ph = phase_name ph ^ "_ns"

let phase_ns m ph =
  Option.fold ~none:0 ~some:Metrics.value
    (Metrics.find_counter m (phase_counter ph))

(* Standard metric names for a single-domain run. Handles are resolved
   here, once; the closures below only touch handles, so the per-round
   cost is a fixed handful of counter bumps however hard the instance
   drives the robots. *)
let of_metrics m =
  let rounds = Metrics.counter m "rounds" in
  let moves = Metrics.counter m "moves" in
  let reveals = Metrics.counter m "reveals" in
  let edge_events = Metrics.counter m "edge_events" in
  let select_ns = Metrics.counter m (phase_counter Select) in
  let apply_ns = Metrics.counter m (phase_counter Apply) in
  let finished_ns = Metrics.counter m (phase_counter Finished_check) in
  let reanchors = Metrics.counter m "reanchors" in
  let reanchor_depth =
    Metrics.histogram ~bounds:Metrics.count_bounds m "reanchor_depth"
  in
  let idle = Metrics.histogram ~bounds:Metrics.count_bounds m "idle_robots" in
  let robots_lost = Metrics.counter m "robots_lost" in
  let robots_revived = Metrics.counter m "robots_revived" in
  let detect_latency =
    Metrics.histogram ~bounds:Metrics.count_bounds m "detect_latency_rounds"
  in
  make
    ~on_round:(fun ~round:_ ~moved ~idle:n ~revealed ~edge_events:ee ->
      Metrics.incr rounds;
      Metrics.add moves moved;
      Metrics.add reveals revealed;
      Metrics.add edge_events ee;
      Metrics.observe_int idle n)
    ~on_phase:(fun phase ns ->
      match phase with
      | Select -> Metrics.add select_ns ns
      | Apply -> Metrics.add apply_ns ns
      | Finished_check -> Metrics.add finished_ns ns)
    ~on_reanchor_summary:(fun ~total ~by_depth ->
      Metrics.add reanchors total;
      Array.iteri
        (fun d c -> if c > 0 then Metrics.observe_int_n reanchor_depth d c)
        by_depth)
    ~on_robot_lost:(fun ~robot:_ ~round:_ ~latency ->
      Metrics.incr robots_lost;
      Metrics.observe_int detect_latency latency)
    ~on_robot_revived:(fun ~robot:_ ~round:_ -> Metrics.incr robots_revived)
    ()

let pool_probe regs =
  let waits =
    Array.map (fun m -> Metrics.histogram m "queue_wait_s") regs
  in
  let runs = Array.map (fun m -> Metrics.histogram m "job_s") regs in
  make
    ~on_job:(fun ~worker ~wait_ns ~run_ns ->
      if worker >= 0 && worker < Array.length regs then begin
        Metrics.observe waits.(worker) (Clock.ns_to_s wait_ns);
        Metrics.observe runs.(worker) (Clock.ns_to_s run_ns)
      end)
    ()

(* The phase spans are closed with what the metrics probe's phase
   counters gained meanwhile: phase time is measured once, by the round
   loop's clock stamps, into [m]. *)
let traced sp ~parent m probe =
  if not (Span.enabled sp) then (probe, fun ~state:_ -> ())
  else begin
    let exe = Span.start ~parent sp "execute" in
    let opened =
      List.map
        (fun ph ->
          let id = Span.start ~parent:exe sp ("phase:" ^ phase_name ph) in
          (ph, id, phase_ns m ph))
        [ Select; Apply; Finished_check ]
    in
    let run = ref Span.none in
    let on_phase ph ns =
      if !run = Span.none then run := Span.start ~parent:exe sp "run";
      probe.on_phase ph ns
    in
    ( { probe with on_phase },
      fun ~state ->
        List.iter
          (fun (ph, id, t0) -> Span.finish ~dur_ns:(phase_ns m ph - t0) sp id)
          opened;
        Span.finish sp !run;
        Span.finish ~attrs:[ ("state", Json.String state) ] sp exe )
  end
