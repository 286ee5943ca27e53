module Stats = Bfdn_util.Stats
module Clock = Bfdn_util.Clock
module Probe = Bfdn_obs.Probe

let now () = Unix.gettimeofday ()

let map ?(probe = Probe.noop) ?workers
    ?(progress = fun ~completed:_ ~total:_ -> ()) f xs =
  let total = Array.length xs in
  let results = Array.make total (Error "not executed") in
  let run_one i =
    results.(i) <- (try Ok (f xs.(i)) with e -> Error (Printexc.to_string e))
  in
  let w =
    match workers with
    | Some w -> max 1 w
    | None -> Domain.recommended_domain_count ()
  in
  if w <= 1 || total <= 1 then
    Array.iteri
      (fun i _ ->
        (* Inline baseline: everything runs as "worker 0" with no queue,
           so the wait component is identically zero. *)
        if probe.Probe.enabled then begin
          let t0 = Clock.now_ns () in
          run_one i;
          let t1 = Clock.now_ns () in
          probe.Probe.on_job ~worker:0 ~wait_ns:0 ~run_ns:(t1 - t0)
        end
        else run_one i;
        progress ~completed:(i + 1) ~total)
      xs
  else begin
    let pool = Pool.create ~probe ~workers:w () in
    (* The count is taken and reported under one lock: counting outside
       it would let a later completion report before an earlier one. *)
    let completed = ref 0 in
    let progress_mutex = Mutex.create () in
    Array.iteri
      (fun i _ ->
        Pool.submit pool (fun () ->
            run_one i;
            Mutex.lock progress_mutex;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock progress_mutex)
              (fun () ->
                incr completed;
                progress ~completed:!completed ~total)))
      xs;
    Pool.join pool;
    Pool.shutdown pool
  end;
  results

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
