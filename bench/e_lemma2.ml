(* E4 — Lemma 2: in any BFDN run, the number of Reanchor calls returning
   an anchor at a fixed depth d >= 1 is at most k (min(log k, log Δ) + 3). *)

open Bench_common
module Table = Bfdn_util.Table

let run () =
  header "E4 (Lemma 2)" "per-depth reanchor counts vs k(min(log k, log Δ)+3)";
  let t =
    Table.create
      ~caption:"max over depths d in [1, D-1] of the reanchor counter."
      [
        ("family", Table.Left); ("n", Table.Right); ("D", Table.Right);
        ("k", Table.Right); ("max reanchors@d", Table.Right);
        ("at depth", Table.Right); ("cap", Table.Right);
        ("max/cap", Table.Right); ("ok", Table.Left);
      ]
  in
  List.iter
    (fun fam ->
      let tree =
        Bfdn_trees.Tree_gen.of_family fam ~rng:(Rng.create (seed + 1))
          ~n:(sized 4000) ~depth_hint:25
      in
      List.iter
        (fun k ->
          let o, worst, worst_depth = run_bfdn_reanchors tree k in
          assert o.result.explored;
          let cap = lemma2_cap ~delta:o.max_degree ~k in
          Table.add_row t
            [
              fam;
              Table.fint o.n;
              Table.fint o.depth;
              Table.fint k;
              Table.fint worst;
              Table.fint worst_depth;
              Table.ffloat ~decimals:0 cap;
              Table.fratio (float_of_int worst /. Float.max 1.0 cap);
              Table.fbool (float_of_int worst <= cap);
            ])
        [ 8; 64 ])
    [ "random"; "random-deep"; "comb"; "caterpillar"; "trap"; "bounded3"; "hidden-path" ];
  Table.print t
