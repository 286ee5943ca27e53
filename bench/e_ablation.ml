(* A1 — ablation of the design choices DESIGN.md calls out:
   (1) anchor selection policy (the urn-game least-loaded rule vs naive
       alternatives) — affects per-depth reanchor pressure and rounds;
   (2) the contribution of the recursive depth-splitting (ell) on deep
       trees (measured, complementing E8's bound view). *)

open Bench_common
module Table = Bfdn_util.Table

let run () =
  header "A1 (ablation)" "anchor policy and recursion depth";
  let t =
    Table.create
      ~caption:
        "anchor policies (k = 64): Least_loaded is the paper's rule; the\n\
         alternatives keep correctness but lose the Lemma 2 balance."
      [
        ("family", Table.Left); ("policy", Table.Left); ("rounds", Table.Right);
        ("max reanchors@d", Table.Right); ("lemma2 cap", Table.Right);
      ]
  in
  let k = 64 in
  List.iter
    (fun fam ->
      let tree =
        Bfdn_trees.Tree_gen.of_family fam ~rng:(Rng.create (seed + 8))
          ~n:(sized 4000) ~depth_hint:25
      in
      List.iter
        (fun (name, policy) ->
          let o, worst, _ =
            run_bfdn_reanchors ~params:[ ("policy", Param.String policy) ] tree k
          in
          assert o.result.explored;
          Table.add_row t
            [
              fam; name; Table.fint o.result.rounds; Table.fint worst;
              Table.ffloat ~decimals:0 (lemma2_cap ~delta:o.max_degree ~k);
            ])
        [
          ("least-loaded (paper)", "least-loaded");
          ("first-open", "first-open");
          (* draws from the spec's algorithm stream *)
          ("random-open", "random-open");
        ];
      Table.add_rule t)
    [ "caterpillar"; "comb"; "random-deep"; "broom" ];
  Table.print t;
  (* Return-to-root vs shortcut re-anchoring (Section 2 discusses why the
     paper keeps the walk home: it enables the write-read planner). *)
  let t2 =
    Table.create
      ~caption:
        "walk-home (paper, Theorem 1 holds) vs shortcut re-anchoring via the\n\
         LCA (no guarantee claimed): the walk is robust, the shortcut is a\n\
         gamble — much faster on deep path-like trees, much slower on bushy\n\
         ones."
      [
        ("family", Table.Left); ("k", Table.Right);
        ("walk-home", Table.Right); ("shortcut", Table.Right);
        ("walk/shortcut", Table.Right); ("thm1 bound", Table.Right);
        ("shortcut <= bound?", Table.Left);
      ]
  in
  List.iter
    (fun fam ->
      let tree =
        Bfdn_trees.Tree_gen.of_family fam ~rng:(Rng.create (seed + 10))
          ~n:(sized 3000) ~depth_hint:30
      in
      List.iter
        (fun k ->
          let o1 = run_tree "bfdn" tree k in
          let r1 = o1.result in
          let r2 =
            (run_tree "bfdn" ~params:[ ("shortcut", Param.Bool true) ] tree k)
              .result
          in
          let bound = thm1_bound_of o1 k in
          Table.add_row t2
            [
              fam; Table.fint k; Table.fint r1.rounds; Table.fint r2.rounds;
              Table.fratio (float_of_int r1.rounds /. float_of_int r2.rounds);
              Table.ffloat ~decimals:0 bound;
              Table.fbool (float_of_int r2.rounds <= bound);
            ])
        [ 8; 64 ])
    [ "caterpillar"; "hidden-path"; "binary"; "random"; "comb" ];
  Table.print t2;
  print_endline
    "NO entries in the last column are expected: the shortcut variant can\n\
     exceed the Theorem 1 bound (it breaks the urn-game reduction), which\n\
     is precisely why Algorithm 1 sends robots home before re-anchoring."
