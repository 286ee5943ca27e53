module Clock = Bfdn_util.Clock

(* GC observation without Gc.Memprof and without allocating on the
   record path. OCaml exposes no direct pause-duration hook, so the
   probe combines two cheap signals:

   - a [Gc.create_alarm] callback, fired by the runtime at the end of
     every major collection cycle, which bumps a plain int ref; and
   - a host-driven [tick], called at a natural cadence of the workload
     (once per exploration round, once per HTTP request). A tick whose
     interval saw at least one major-cycle end attributes that interval
     to the GC and records it into the pause histogram.

   The recorded gap is an upper bound on the actual pause (it includes
   the mutator work of the interval), but at round granularity it is
   exactly the quantity the huge tier cares about: how long a round can
   stall because the GC ran. The record path is two clock reads, int
   compares and [Metrics.observe_int] — no allocation, safe inside the
   hot loop. *)

type t = {
  registry : Metrics.t;
  cycles : int ref; (* bumped by the alarm at each major-cycle end *)
  pause : Metrics.histogram;
  cycle_ctr : Metrics.counter;
  mutable seen_cycles : int;
  mutable last_ns : int;
  mutable alarm : Gc.alarm option;
}

(* Nanosecond ladder mirroring {!Metrics.latency_bounds}: 1µs doubling
   to ~2s. *)
let pause_bounds_ns = Array.map (fun s -> s *. 1e9) Metrics.latency_bounds

let create registry =
  let cycles = ref 0 in
  let t =
    {
      registry;
      cycles;
      pause =
        Metrics.histogram ~bounds:pause_bounds_ns registry "gc_pause_ns";
      cycle_ctr = Metrics.counter registry "gc_major_cycles";
      seen_cycles = 0;
      last_ns = Clock.now_ns ();
      alarm = None;
    }
  in
  t.alarm <- Some (Gc.create_alarm (fun () -> incr cycles));
  t

let tick t =
  let now = Clock.now_ns () in
  let cycles = !(t.cycles) in
  if cycles > t.seen_cycles then begin
    Metrics.observe_int t.pause (now - t.last_ns);
    Metrics.add t.cycle_ctr (cycles - t.seen_cycles);
    t.seen_cycles <- cycles
  end;
  t.last_ns <- now

let major_cycles t =
  (* Include cycles the next tick has not folded into the counter yet. *)
  !(t.cycles)

(* End-of-run totals from the runtime's own accounting. Allocates (and
   [Gc.quick_stat] is not free), so this is for run boundaries, never
   the round loop. *)
let snapshot t =
  let s = Gc.quick_stat () in
  List.iter
    (fun (name, v) -> Metrics.set (Metrics.gauge t.registry ("gc_" ^ name)) v)
    [
      ("minor_collections", float_of_int s.Gc.minor_collections);
      ("major_collections", float_of_int s.Gc.major_collections);
      ("compactions", float_of_int s.Gc.compactions);
      ("heap_words", float_of_int s.Gc.heap_words);
      ("top_heap_words", float_of_int s.Gc.top_heap_words);
      ("minor_words", s.Gc.minor_words);
    ]

let alarm_active t = t.alarm <> None

let dispose t =
  match t.alarm with
  | None -> ()
  | Some a ->
      Gc.delete_alarm a;
      t.alarm <- None
