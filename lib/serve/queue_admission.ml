module Scenario = Bfdn_scenario.Scenario
module Ring = Bfdn_obs.Sink.Ring
module Span = Bfdn_obs.Span
module Pool = Bfdn_engine.Pool

type state =
  | Queued
  | Running
  | Done of string
  | Failed of string
  | Timeout
  | Cancelled

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done _ -> "done"
  | Failed _ -> "failed"
  | Timeout -> "timeout"
  | Cancelled -> "cancelled"

let is_terminal = function
  | Queued | Running -> false
  | Done _ | Failed _ | Timeout | Cancelled -> true

type event = Frame of Bfdn_sim.Trace.frame | Row of Bfdn_obs.Json.t

type job = {
  id : int;
  spec : Scenario.t;
  fingerprint : string;
  timeout_s : float;
  stream : event Ring.t;
  token : Pool.token;
  trace : string;
  span : Span.t;
  root_span : Span.id;
  queue_span : Span.id;
  mutable state : state;
  mutable timed_out : bool;
  mutable postmortem : string option;
}

type t = {
  capacity : int;
  keep_terminal : int;
  m : Mutex.t;
  changed : Condition.t; (* broadcast on every state transition *)
  jobs : (int, job) Hashtbl.t;
  order : int Queue.t; (* admission order, for terminal pruning *)
  mutable next_id : int;
  mutable inflight : int;
  mutable draining : bool;
}

let create ?(cap = 64) ?(keep_terminal = 256) () =
  if cap < 1 then invalid_arg "Queue_admission.create: cap must be >= 1";
  if keep_terminal < 0 then
    invalid_arg "Queue_admission.create: keep_terminal must be >= 0";
  {
    capacity = cap;
    keep_terminal;
    m = Mutex.create ();
    changed = Condition.create ();
    jobs = Hashtbl.create 64;
    order = Queue.create ();
    next_id = 0;
    inflight = 0;
    draining = false;
  }

let cap t = t.capacity

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Drop the oldest settled jobs once more than [keep_terminal] terminal
   jobs are retained. In-flight jobs are never pruned: ids are popped
   from [order] only when the head is terminal, which preserves the
   bound because admissions (hence heads) settle eventually. *)
let prune t =
  let terminal =
    Hashtbl.length t.jobs - t.inflight
  in
  let excess = ref (terminal - t.keep_terminal) in
  let parked = Queue.create () in
  while !excess > 0 && not (Queue.is_empty t.order) do
    let id = Queue.pop t.order in
    match Hashtbl.find_opt t.jobs id with
    | Some j when is_terminal j.state ->
        Hashtbl.remove t.jobs id;
        decr excess
    | Some _ -> Queue.push id parked
    | None -> ()
  done;
  (* Re-queue skipped in-flight ids ahead of the remaining order. *)
  Queue.transfer t.order parked;
  Queue.transfer parked t.order

let stream_cap = 1024

let admit ?(trace = "") ?(span = Span.disabled) ?(parent = Span.none) t
    ~timeout_s ~fingerprint spec =
  locked t (fun () ->
      if t.draining then Error `Draining
      else if t.inflight >= t.capacity then Error `Full
      else begin
        let id = t.next_id in
        t.next_id <- id + 1;
        let job =
          {
            id;
            spec;
            fingerprint;
            timeout_s;
            stream = Ring.create stream_cap;
            token = Pool.token ();
            trace;
            span;
            root_span = parent;
            (* Opened here so the span covers admission-to-execution
               latency; the executor closes it at [mark_running]. *)
            queue_span = Span.start ~parent span "queue";
            state = Queued;
            timed_out = false;
            postmortem = None;
          }
        in
        Hashtbl.replace t.jobs id job;
        Queue.push id t.order;
        t.inflight <- t.inflight + 1;
        prune t;
        Ok job
      end)

let find t id = locked t (fun () -> Hashtbl.find_opt t.jobs id)

let mark_running t job =
  locked t (fun () ->
      match job.state with
      | Queued ->
          job.state <- Running;
          Condition.broadcast t.changed;
          true
      | _ -> false)

let settle t job st =
  if not (is_terminal st) then
    invalid_arg "Queue_admission.settle: state must be terminal";
  locked t (fun () ->
      if not (is_terminal job.state) then begin
        job.state <- st;
        t.inflight <- t.inflight - 1;
        Condition.broadcast t.changed
      end);
  (* Close outside the table lock: closing broadcasts the ring's own
     condition and must never deadlock against a pushing producer. *)
  Ring.close job.stream

let await t job =
  locked t (fun () ->
      while not (is_terminal job.state) do
        Condition.wait t.changed t.m
      done;
      job.state)

let state t job = locked t (fun () -> job.state)
let inflight t = locked t (fun () -> t.inflight)

let retry_after_s t =
  let horizon =
    locked t (fun () ->
        Hashtbl.fold
          (fun _ j acc ->
            if is_terminal j.state then acc else Float.max acc j.timeout_s)
          t.jobs 0.)
  in
  max 1 (int_of_float (ceil (horizon /. 2.)))

let drain t =
  let to_cancel =
    locked t (fun () ->
        t.draining <- true;
        Hashtbl.fold
          (fun _ j acc -> if j.state = Queued then j :: acc else acc)
          t.jobs [])
  in
  (* Cancel first so the pool skips the task, then settle; a worker
     racing into [mark_running] loses because the job is terminal. *)
  List.iter
    (fun j ->
      Pool.cancel j.token;
      settle t j Cancelled)
    to_cancel

let draining t = locked t (fun () -> t.draining)

let await_idle t =
  locked t (fun () ->
      while t.inflight > 0 do
        Condition.wait t.changed t.m
      done)

let jobs_admitted t = locked t (fun () -> t.next_id)
