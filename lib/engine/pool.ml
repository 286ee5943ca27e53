module Clock = Bfdn_util.Clock
module Probe = Bfdn_obs.Probe

exception Cancelled

type token = bool Atomic.t

let token () = Atomic.make false
let cancel tk = Atomic.set tk true
let is_cancelled tk = Atomic.get tk
let check tk = if Atomic.get tk then raise Cancelled

type t = {
  n_workers : int;
  queue : (int * token option * (unit -> unit)) Queue.t;
      (* (submit timestamp ns, cancellation token, task) *)
  mutex : Mutex.t;
  nonempty : Condition.t;
  idle : Condition.t;
  mutable pending : int;  (* submitted, not yet finished *)
  mutable stopped : bool;
  probe : Probe.t;
  mutable domains : unit Domain.t list;
}

let worker t i () =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.stopped do
      Condition.wait t.nonempty t.mutex
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mutex (* stopped: exit *)
    else begin
      let submitted_ns, tok, task = Queue.pop t.queue in
      Mutex.unlock t.mutex;
      (* A token cancelled while the task sat in the queue skips it
         entirely — that is what lets the serve layer drop timed-out or
         abandoned jobs without burning a worker on them. Running tasks
         observe cancellation themselves via [check]. *)
      let skip = match tok with Some tk -> is_cancelled tk | None -> false in
      (* Contain failures here so a raising task cannot kill the worker;
         result-level error reporting is layered on top (see Batch). *)
      if skip then ()
      else if t.probe.Probe.enabled then begin
        let t0 = Clock.now_ns () in
        (try task () with _ -> ());
        let t1 = Clock.now_ns () in
        (* on_job runs on this worker domain: the probe contract requires
           domain-safe hooks (per-worker sinks). *)
        t.probe.Probe.on_job ~worker:i ~wait_ns:(t0 - submitted_ns)
          ~run_ns:(t1 - t0)
      end
      else (try task () with _ -> ());
      Mutex.lock t.mutex;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.idle;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()

let max_workers = 127

let create ?(probe = Probe.noop) ?workers () =
  let n_workers =
    match workers with
    | Some w -> max 1 (min max_workers w)
    | None -> min max_workers (Domain.recommended_domain_count ())
  in
  let t =
    {
      n_workers;
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      idle = Condition.create ();
      pending = 0;
      stopped = false;
      probe;
      domains = [];
    }
  in
  t.domains <- List.init n_workers (fun i -> Domain.spawn (worker t i));
  t

let workers t = t.n_workers

let submit ?token t f =
  let submitted_ns = if t.probe.Probe.enabled then Clock.now_ns () else 0 in
  Mutex.lock t.mutex;
  if t.stopped then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  t.pending <- t.pending + 1;
  Queue.push (submitted_ns, token, f) t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

let join t =
  Mutex.lock t.mutex;
  while t.pending > 0 do
    Condition.wait t.idle t.mutex
  done;
  Mutex.unlock t.mutex

let shutdown t =
  join t;
  Mutex.lock t.mutex;
  let was_stopped = t.stopped in
  t.stopped <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  if not was_stopped then begin
    List.iter Domain.join t.domains;
    t.domains <- []
  end
