module Stats = Bfdn_util.Stats
module Clock = Bfdn_util.Clock
module Probe = Bfdn_obs.Probe

let now () = Unix.gettimeofday ()

let map ?(probe = Probe.noop) ?workers
    ?(progress = fun ~completed:_ ~total:_ -> ()) f xs =
  let total = Array.length xs in
  let results = Array.make total (Error "not executed") in
  let w =
    match workers with
    | Some w -> max 1 (min Pool.max_workers w)
    | None -> min Pool.max_workers (Domain.recommended_domain_count ())
  in
  let next = Atomic.make 0 and completed = ref 0 and lock = Mutex.create () in
  let start_ns = Clock.now_ns () in
  (* Each worker takes the next index until none is left. The count is
     taken and reported under one lock: counting outside it would let a
     later completion report before an earlier one. *)
  let rec work worker =
    let i = Atomic.fetch_and_add next 1 in
    if i < total then begin
      let t0 = if probe.Probe.enabled then Clock.now_ns () else 0 in
      results.(i) <- (try Ok (f xs.(i)) with e -> Error (Printexc.to_string e));
      if probe.Probe.enabled then
        probe.Probe.on_job ~worker ~wait_ns:(t0 - start_ns)
          ~run_ns:(Clock.now_ns () - t0);
      Mutex.protect lock (fun () ->
          incr completed;
          progress ~completed:!completed ~total);
      work worker
    end
  in
  (* The caller is worker 0. A raising [progress] stops every worker at
     its next take, and is re-raised once all helpers have joined. *)
  let stop () = Atomic.set next total in
  let helper worker () =
    match work worker with () -> None | exception e -> stop (); Some e
  in
  let helpers = ref [] and errors = ref [] in
  Fun.protect
    ~finally:(fun () ->
      stop ();
      errors := List.filter_map Domain.join !helpers)
    (fun () ->
      for h = 1 to min w total - 1 do
        helpers := Domain.spawn (helper h) :: !helpers
      done;
      work 0);
  match !errors with [] -> results | e :: _ -> raise e

let run ?probe ?workers ?progress jobs =
  let arr = Array.of_list jobs in
  let res = map ?probe ?workers ?progress Bfdn_scenario.Scenario.run arr in
  List.mapi (fun i j -> (j, res.(i))) jobs

type agg = {
  jobs : int;
  errors : int;
  explored : int;
  total_rounds : int;
  per_algo : (string * Stats.summary) list;
}

let aggregate results =
  let errors = ref 0 and explored = ref 0 and total_rounds = ref 0 in
  let order = ref [] (* algo names, first-seen order *) in
  let rounds : (string, int list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ((job : Bfdn_scenario.Scenario.t), res) ->
      match res with
      | Error _ -> incr errors
      | Ok (o : Bfdn_scenario.Scenario.outcome) ->
          if o.result.explored then incr explored;
          total_rounds := !total_rounds + o.result.rounds;
          let cell =
            match Hashtbl.find_opt rounds job.algo with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.add rounds job.algo r;
                order := job.algo :: !order;
                r
          in
          cell := o.result.rounds :: !cell)
    results;
  let per_algo =
    List.rev_map
      (fun algo ->
        let xs = !(Hashtbl.find rounds algo) in
        let arr = Array.of_list (List.rev_map float_of_int xs) in
        (algo, Stats.summarize arr))
      !order
  in
  {
    jobs = List.length results;
    errors = !errors;
    explored = !explored;
    total_rounds = !total_rounds;
    per_algo;
  }
