(* E8 — Theorem 10: recursive BFDN_ell explores within
   4n/k^(1/ell) + 2^(ell+1)(ell+1+min(log Δ, log k / ell)) D^(1+1/ell);
   improving dependence on depth for deep trees. *)

open Bench_common
module Table = Bfdn_util.Table

let run () =
  header "E8 (Theorem 10)" "BFDN_ell on deep trees, ell in {1, 2, 3}";
  let t =
    Table.create
      ~caption:
        "bound(ell) is the Theorem 10 guarantee; bfdn = plain BFDN rounds\n\
         (its Theorem 1 bound grows as D^2, BFDN_ell's as D^(1+1/ell))."
      [
        ("tree", Table.Left); ("n", Table.Right); ("D", Table.Right);
        ("k", Table.Right); ("ell", Table.Right); ("rounds", Table.Right);
        ("bound(ell)", Table.Right); ("rounds/bound", Table.Right);
        ("bfdn", Table.Right); ("thm1 bound", Table.Right); ("ok", Table.Left);
      ]
  in
  let instances =
    [
      ("comb 80x30", Bfdn_trees.Tree_gen.comb ~spine:80 ~tooth_len:(max 3 (sized 30)));
      ( "random-deep",
        Bfdn_trees.Tree_gen.random_deep ~rng:(Rng.create (seed + 5))
          ~n:(sized 6000) ~depth:150 );
      ("path", Bfdn_trees.Tree_gen.path (sized 2000));
      ("trap 10x100", Bfdn_trees.Tree_gen.binary_trap ~levels:10 ~tail:(max 5 (sized 100)));
    ]
  in
  List.iter
    (fun (name, tree) ->
      List.iter
        (fun k ->
          let o0 = run_tree "bfdn" tree k in
          let thm1 = thm1_bound_of o0 k in
          List.iter
            (fun ell ->
              let o =
                run_tree "bfdn-rec" ~params:[ ("ell", Param.Int ell) ] tree k
              in
              let r = o.result in
              let bound =
                Bfdn.Bounds.bfdn_rec ~n:o.n ~k ~d:o.depth ~delta:o.max_degree
                  ~ell
              in
              Table.add_row t
                [
                  name;
                  Table.fint o.n;
                  Table.fint o.depth;
                  Table.fint k;
                  Table.fint ell;
                  Table.fint r.rounds;
                  Table.ffloat ~decimals:0 bound;
                  Table.fratio (float_of_int r.rounds /. bound);
                  Table.fint o0.result.rounds;
                  Table.ffloat ~decimals:0 thm1;
                  Table.fbool (r.explored && float_of_int r.rounds <= bound);
                ])
            [ 1; 2; 3 ])
        [ 16; 256 ];
      Table.add_rule t)
    instances;
  Table.print t;
  (* The headline comparison: guarantee curves as D grows at fixed n/D ratio. *)
  let curve =
    Table.create
      ~caption:
        "Guarantee comparison at k = 4096, n = 50 D^1.5 (deep regime):\n\
         BFDN_ell's bound overtakes BFDN's as D grows — the Section 5 point."
      [
        ("D", Table.Right); ("thm1 bound", Table.Right);
        ("thm10 ell=2", Table.Right); ("thm10 ell=3", Table.Right);
        ("best", Table.Left);
      ]
  in
  List.iter
    (fun d ->
      let n = int_of_float (50.0 *. (float_of_int d ** 1.5)) in
      let k = 4096 in
      let b1 = Bfdn.Bounds.bfdn ~n ~k ~d ~delta:k in
      let b2 = Bfdn.Bounds.bfdn_rec ~n ~k ~d ~delta:k ~ell:2 in
      let b3 = Bfdn.Bounds.bfdn_rec ~n ~k ~d ~delta:k ~ell:3 in
      let best =
        if b1 <= b2 && b1 <= b3 then "BFDN"
        else if b2 <= b3 then "BFDN_2"
        else "BFDN_3"
      in
      Table.add_row curve
        [
          Table.fint d; Table.ffloat ~decimals:0 b1; Table.ffloat ~decimals:0 b2;
          Table.ffloat ~decimals:0 b3; best;
        ])
    [ 10; 30; 100; 300; 1000; 3000; 10000 ];
  Table.print curve
