(* Break-down resilience (Section 4.2): an adversary freezes robots at
   will — flat batteries, lost radio links, whole half of the fleet dead —
   yet BFDN still visits every edge once the surviving move budget
   reaches 2n/k + D^2(log k + 3) moves per robot on average.

   Run with: dune exec examples/breakdown_resilience.exe *)

module Tree_gen = Bfdn_trees.Tree_gen
module Exec_env = Bfdn_sim.Exec_env
module Rng = Bfdn_util.Rng
module Param = Bfdn_scenario.Param
module Scenario = Bfdn_scenario.Scenario
module Fault_plan = Bfdn_faults.Fault_plan

let () =
  let tree = Tree_gen.random_tree ~rng:(Rng.create 5) ~n:4000 () in
  let stats = Bfdn_trees.Tree_stats.compute tree in
  let k = 24 in
  Format.printf "Exploring %a with k=%d robots under failures:@." Bfdn_trees.Tree_stats.pp
    stats k;
  let threshold = Bfdn.Bounds.bfdn_breakdown ~n:stats.n ~k ~d:stats.depth in
  let dropped p = [ ("mask", Param.String "random"); ("mask_p", Param.Float p) ] in
  (* robots 3 .. k-1 crash for good at round 300 *)
  let crashes = List.init (k - 3) (fun i -> Printf.sprintf "%d@300" (i + 3)) in
  let scenarios =
    [
      ("no failures", []);
      ("10% of moves dropped", dropped 0.1);
      ("60% of moves dropped", dropped 0.6);
      ("half the fleet is dead", [ ("mask", Param.String "half") ]);
      ( "fleet dies after round 300",
        [ ("crashes", Param.String (String.concat "," crashes)) ] );
    ]
  in
  List.iter
    (fun (name, faults) ->
      (* blocked robots may never make it home: count the rounds to full
         edge coverage only (the paper drops the return requirement here),
         and cap the wait for crashed robots that never return *)
      let spec =
        Scenario.make ~k ~seed:99 ~max_rounds:20_000 ~faults
          (Scenario.world "path")
      in
      let explored_at = ref None in
      let on_round x =
        if !explored_at = None && x.Exec_env.explored () then
          explored_at := Some (x.Exec_env.round ())
      in
      let o = Scenario.run_on_tree ~on_round spec tree in
      let rounds = Option.value !explored_at ~default:o.result.rounds in
      let plan =
        Option.value (Scenario.fault_plan spec) ~default:(Fault_plan.none ~k)
      in
      let avg_allowed =
        float_of_int (Fault_plan.allowed_slots plan ~rounds) /. float_of_int k
      in
      Printf.printf
        "  %-26s explored=%b in %6d rounds; allowed moves per robot %6.0f \
         (threshold %5.0f, used %4.1f%%)\n"
        name (!explored_at <> None) rounds avg_allowed threshold
        (100.0 *. avg_allowed /. threshold))
    scenarios;
  print_newline ();
  print_endline
    "Proposition 7: any failure pattern granting an average of\n\
     2n/k + D^2(log k + 3) moves per robot suffices to finish the job."
