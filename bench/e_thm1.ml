(* E2 — Theorem 1: BFDN completes in at most
   2n/k + D^2 (min(log k, log Δ) + 3) rounds, on every instance family.
   The (family, k) sweep runs as one engine batch: each cell is a pure
   Scenario spec, executed across the worker pool and collected in order. *)

open Bench_common
module Table = Bfdn_util.Table

let ks = [ 1; 8; 64; 512 ]

let jobs () =
  List.concat_map
    (fun fam ->
      List.map
        (fun k ->
          Scenario.make ~algo:"bfdn" ~k ~seed
            (Scenario.generated ~family:fam ~n:(sized 5000) ~depth_hint:40))
        ks)
    Bfdn_trees.Tree_gen.families

let run () =
  header "E2 (Theorem 1)"
    "BFDN rounds vs the 2n/k + D^2(min(log k, log Δ)+3) guarantee";
  let t =
    Table.create
      ~caption:
        "rounds always <= bound (a violation would falsify Theorem 1);\n\
         lb = offline lower bound max(2n/k, 2D)."
      [
        ("family", Table.Left); ("n", Table.Right); ("D", Table.Right);
        ("Δ", Table.Right); ("k", Table.Right); ("rounds", Table.Right);
        ("bound", Table.Right); ("rounds/bound", Table.Right);
        ("rounds/lb", Table.Right); ("ok", Table.Left);
      ]
  in
  let worst = ref 0.0 in
  List.iter
    (fun ((job : Scenario.t), _ as cell) ->
      let o = ok_outcome cell in
      let bound = thm1_bound_of o job.k in
      let ratio = float_of_int o.result.rounds /. bound in
      worst := Float.max !worst ratio;
      Table.add_row t
        [
          family_of_job job;
          Table.fint o.n;
          Table.fint o.depth;
          Table.fint o.max_degree;
          Table.fint job.k;
          Table.fint o.result.rounds;
          Table.ffloat ~decimals:0 bound;
          Table.fratio ratio;
          Table.fratio (float_of_int o.result.rounds /. offline_lb_of o job.k);
          Table.fbool (o.result.explored && o.result.at_root && ratio <= 1.0);
        ])
    (run_jobs (jobs ()));
  Table.print t;
  Printf.printf "worst rounds/bound ratio: %.3f (paper predicts <= 1)\n" !worst
