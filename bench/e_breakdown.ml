(* E6 — Proposition 7: under adversarial robot break-downs, all edges are
   visited once the average number of allowed moves reaches
   2n/k + D^2(log k + 3). *)

open Bench_common
module Table = Bfdn_util.Table

let masks k rng =
  let memo = Hashtbl.create 4096 in
  let random p ~round ~robot =
    match Hashtbl.find_opt memo (p, round, robot) with
    | Some b -> b
    | None ->
        let b = Rng.float rng 1.0 < p in
        Hashtbl.add memo (p, round, robot) b;
        b
  in
  [
    ("none (baseline)", None);
    ("random p=0.75", Some (random 0.75));
    ("random p=0.25", Some (random 0.25));
    ("half fleet dead", Some (fun ~round:_ ~robot -> robot < (k + 1) / 2));
    ("rotating thirds", Some (fun ~round ~robot -> (round + robot) mod 3 <> 0));
    ("only one mover", Some (fun ~round:_ ~robot -> robot = 0));
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
           "k = %d; A(M) = allowed (round, robot) slots per robot at completion;\n\
            ok = tree fully explored before A(M) reached the threshold."
           k)
      [
        ("move mask", Table.Left); ("rounds", Table.Right);
        ("A(M) at completion", Table.Right); ("threshold", Table.Right);
        ("A(M)/threshold", Table.Right); ("ok", Table.Left);
      ]
  in
  List.iter
    (fun (name, mask) ->
      (* A direct loop: the check reads Env.allowed_total every round. *)
      let env = Env.create ?fault:(Option.map Env.mask_hook mask) tree ~k in
      let state = Bfdn.Bfdn_algo.make env in
      let algo =
        { (Bfdn.Bfdn_algo.algo state) with Runner.finished = Env.fully_explored }
      in
      let threshold =
        Bfdn.Bounds.bfdn_breakdown ~n:(Env.oracle_n env) ~k ~d:(Env.oracle_depth env)
      in
      let violated = ref false in
      let watch env =
        if
          float_of_int (Env.allowed_total env) /. float_of_int k >= threshold
          && not (Env.fully_explored env)
        then violated := true
      in
      let r = Runner.run ~max_rounds:2_000_000 ~on_round:watch algo env in
      let avg = float_of_int (Env.allowed_total env) /. float_of_int k in
      Table.add_row t
        [
          name; Table.fint r.rounds; Table.ffloat ~decimals:0 avg;
          Table.ffloat ~decimals:0 threshold;
          Table.fratio (avg /. threshold);
          Table.fbool (r.explored && not !violated);
        ])
    (masks k (Rng.create (seed + 4)));
  Table.print t
