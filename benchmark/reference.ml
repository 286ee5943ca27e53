(* The host-speed reference: a fixed, allocation-heavy loop run in a
   process of its own. The benchmark samples it between the slices of a
   timed window and rescales every time it reports by the sample's
   duration (see README.md, "Host-speed normalization").

   It links none of the repository's libraries and keeps no state
   between samples, so no change to the program under test can make it
   faster or slower: its duration moves only with the host. Protocol: a
   line holding a number d runs the loop once alone and then once in
   each of d domains at the same time, and answers with the mean of the
   d + 1 durations in ns. Run alone, the loop sees the core it runs on;
   run on d cores at once, it sees what a workload that keeps d cores
   busy sees. End of input, or the line "q", ends the process. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Hash-table updates with list values, a list of boxed pairs, its
   reversal: minor and major allocation, pointer chasing and promotion,
   the mix the simulator's round loop also exercises. *)
let work () =
  let h = Hashtbl.create 16 in
  for i = 1 to 20_000 do
    Hashtbl.replace h (i * 7919 land 0xfffff) [ i; i + 1 ]
  done;
  let l = List.init 40_000 (fun i -> (i, float_of_int i)) in
  Hashtbl.length h + List.length (List.rev l)

let timed () =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (work ()));
  now_ns () - t0

let sample domains =
  let alone = timed () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn timed) in
  let mine = timed () in
  (alone + mine + List.fold_left (fun acc d -> acc + Domain.join d) 0 others) / (domains + 1)

let () =
  (* The first samples grow the heap; warm it before the first answer. *)
  for _ = 1 to 3 do
    ignore (sample 1)
  done;
  let rec loop () =
    match In_channel.input_line stdin with
    | None | Some "q" -> ()
    | Some line ->
        let domains = match int_of_string_opt line with Some d when d >= 1 -> d | _ -> 1 in
        print_endline (string_of_int (sample domains));
        loop ()
  in
  loop ()
