(* E6 — Proposition 7: under adversarial robot break-downs, all edges are
   visited once the average number of allowed moves reaches
   2n/k + D^2(log k + 3). *)

open Bench_common
module Table = Bfdn_util.Table
module Fault_plan = Bfdn_faults.Fault_plan

(* Fault_plan's move-mask vocabulary, as a spec's fault bindings. *)
let masks =
  let mask ?(knobs = []) m = ("mask", Param.String m) :: knobs in
  [
    ("none (baseline)", []);
    ( "random 25% blocked",
      mask "random" ~knobs:[ ("mask_p", Param.Float 0.25) ] );
    ( "random 75% blocked",
      mask "random" ~knobs:[ ("mask_p", Param.Float 0.75) ] );
    ("half fleet dead", mask "half");
    ("rotating thirds", mask "rotating" ~knobs:[ ("mask_m", Param.Int 3) ]);
    ("only one mover", mask "solo");
  ]

let run () =
  header "E6 (Proposition 7)"
    "exploration completes before A(M) = 2n/k + D^2(log k + 3) allowed moves";
  let tree =
    Bfdn_trees.Tree_gen.of_family "random" ~rng:(Rng.create (seed + 3))
      ~n:(sized 2500) ~depth_hint:15
  in
  let k = 16 in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "k = %d; rounds = first round with every edge explored;\n\
            A(M) = allowed (round, robot) slots per robot by then;\n\
            ok = tree fully explored before A(M) reached the threshold."
           k)
      [
        ("move mask", Table.Left); ("rounds", Table.Right);
        ("A(M) at completion", Table.Right); ("threshold", Table.Right);
        ("A(M)/threshold", Table.Right); ("ok", Table.Left);
      ]
  in
  List.iter
    (fun (name, faults) ->
      let spec =
        Scenario.make ~algo:"bfdn" ~k ~seed ~faults (Scenario.world "path")
      in
      let explored_at = ref None in
      let on_round x =
        if !explored_at = None && x.Exec_env.explored () then
          explored_at := Some (x.Exec_env.round ())
      in
      let o = Scenario.run_on_tree ~on_round spec tree in
      (* A(M) is a function of the plan: no counter in the round loop. *)
      let plan =
        Option.value (Scenario.fault_plan spec) ~default:(Fault_plan.none ~k)
      in
      let a rounds =
        float_of_int (Fault_plan.allowed_slots plan ~rounds) /. float_of_int k
      in
      let threshold = Bfdn.Bounds.bfdn_breakdown ~n:o.n ~k ~d:o.depth in
      let rounds = Option.value !explored_at ~default:o.result.rounds in
      (* The watchdog: A(M) had not reached the threshold one round
         before the last edge was explored. *)
      let ok = !explored_at <> None && a (rounds - 1) < threshold in
      Table.add_row t
        [
          name; Table.fint rounds; Table.ffloat ~decimals:0 (a rounds);
          Table.ffloat ~decimals:0 threshold;
          Table.fratio (a rounds /. threshold);
          Table.fbool ok;
        ])
    masks;
  Table.print t
