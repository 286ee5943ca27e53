(* E5 — Proposition 6: BFDN in the write-read / restricted-memory model
   keeps the 2n/k + D^2(min(log k, log Δ)+3) guarantee. *)

open Bench_common
module Table = Bfdn_util.Table

let run () =
  header "E5 (Proposition 6)" "write-read BFDN vs complete-communication BFDN";
  let t =
    Table.create
      ~caption:
        "same bound as Theorem 1; the write-read planner pays extra probe\n\
         travel but stays within it."
      [
        ("family", Table.Left); ("n", Table.Right); ("k", Table.Right);
        ("bfdn", Table.Right); ("write-read", Table.Right);
        ("wr/bfdn", Table.Right); ("bound", Table.Right);
        ("wr/bound", Table.Right); ("ok", Table.Left);
      ]
  in
  List.iter
    (fun fam ->
      let tree =
        Bfdn_trees.Tree_gen.of_family fam ~rng:(Rng.create (seed + 2))
          ~n:(sized 3000) ~depth_hint:20
      in
      List.iter
        (fun k ->
          let o1 = run_tree "bfdn" tree k in
          let r2 = (run_tree "bfdn-wr" tree k).result in
          let bound = thm1_bound_of o1 k in
          Table.add_row t
            [
              fam;
              Table.fint o1.n;
              Table.fint k;
              Table.fint o1.result.rounds;
              Table.fint r2.rounds;
              Table.fratio
                (float_of_int r2.rounds /. float_of_int o1.result.rounds);
              Table.ffloat ~decimals:0 bound;
              Table.fratio (float_of_int r2.rounds /. bound);
              Table.fbool
                (r2.explored && r2.at_root && float_of_int r2.rounds <= bound);
            ])
        [ 8; 64 ])
    Bfdn_trees.Tree_gen.families;
  Table.print t
