(* Determinism regression: full BFDN runs pinned to golden statistics
   captured from the seed implementation (after canonicalizing the
   Random_open draw to the sorted candidate set, before the zero-allocation
   round-loop refactor). Any change to move resolution, bucket iteration,
   routing or the RNG consumption pattern shows up here as a diff in
   (rounds, moves, edge_events, reanchors_total).

   The table is regenerated by running the seven families below at k = 9,
   n = 500, depth_hint = 12, tree rng seed 1000 + family index, and a fresh
   Random_open rng seed 5 per run — update it only for a deliberate,
   documented behaviour change. *)

module Tree_gen = Bfdn_trees.Tree_gen
module Env = Bfdn_sim.Env
module Exec_env = Bfdn_sim.Exec_env
module Bfdn_algo = Bfdn.Bfdn_algo
module Rng = Bfdn_util.Rng

type pol = Least_loaded | First_open | Random_open

let families =
  [ "comb"; "binary"; "random"; "trap"; "caterpillar"; "spider"; "hidden-path" ]

(* (family, policy, shortcut, (rounds, moves, edge_events, reanchors)) *)
let golden =
  [
    ("comb", Least_loaded, false, (233, 1808, 984, 337));
    ("comb", Least_loaded, true, (259, 1784, 984, 664));
    ("comb", First_open, false, (235, 1818, 984, 352));
    ("comb", First_open, true, (260, 1806, 984, 656));
    ("comb", Random_open, false, (233, 1808, 984, 337));
    ("comb", Random_open, true, (259, 1784, 984, 664));
    ("binary", Least_loaded, false, (137, 1174, 1020, 85));
    ("binary", Least_loaded, true, (405, 3604, 1020, 426));
    ("binary", First_open, false, (147, 1284, 1020, 88));
    ("binary", First_open, true, (1050, 9434, 1020, 2732));
    ("binary", Random_open, false, (137, 1166, 1020, 92));
    ("binary", Random_open, true, (526, 4678, 1020, 611));
    ("random", Least_loaded, false, (168, 1454, 998, 126));
    ("random", Least_loaded, true, (274, 2420, 998, 390));
    ("random", First_open, false, (173, 1438, 998, 190));
    ("random", First_open, true, (910, 8176, 998, 1408));
    ("random", Random_open, false, (172, 1478, 998, 141));
    ("random", Random_open, true, (396, 3530, 998, 472));
    ("trap", Least_loaded, false, (169, 1174, 1006, 377));
    ("trap", Least_loaded, true, (241, 1764, 1006, 464));
    ("trap", First_open, false, (171, 1188, 1006, 388));
    ("trap", First_open, true, (243, 1774, 1006, 486));
    ("trap", Random_open, false, (169, 1174, 1006, 377));
    ("trap", Random_open, true, (241, 1764, 1006, 464));
    ("caterpillar", Least_loaded, false, (258, 2312, 1064, 147));
    ("caterpillar", Least_loaded, true, (142, 1266, 1064, 640));
    ("caterpillar", First_open, false, (258, 2312, 1064, 147));
    ("caterpillar", First_open, true, (142, 1266, 1064, 640));
    ("caterpillar", Random_open, false, (258, 2312, 1064, 147));
    ("caterpillar", Random_open, true, (142, 1266, 1064, 640));
    ("spider", Least_loaded, false, (123, 1088, 984, 72));
    ("spider", Least_loaded, true, (120, 1072, 984, 129));
    ("spider", First_open, false, (123, 1088, 984, 72));
    ("spider", First_open, true, (120, 1072, 984, 129));
    ("spider", Random_open, false, (123, 1088, 984, 72));
    ("spider", Random_open, true, (123, 1052, 984, 152));
    ("hidden-path", Least_loaded, false, (1142, 10062, 1512, 373));
    ("hidden-path", Least_loaded, true, (619, 5550, 1512, 852));
    ("hidden-path", First_open, false, (1225, 10628, 1512, 600));
    ("hidden-path", First_open, true, (1389, 12484, 1512, 3983));
    ("hidden-path", Random_open, false, (1160, 9692, 1512, 899));
    ("hidden-path", Random_open, true, (822, 7374, 1512, 1150));
  ]

let pol_name = function
  | Least_loaded -> "least-loaded"
  | First_open -> "first-open"
  | Random_open -> "random-open"

let run_config fam tree pol shortcut =
  let env = Env.create tree ~k:9 in
  let policy =
    match pol with
    | Least_loaded -> Bfdn_algo.Least_loaded
    | First_open -> Bfdn_algo.First_open
    | Random_open -> Bfdn_algo.Random_open (Rng.create 5)
  in
  let t = Bfdn_algo.make ~policy ~shortcut env in
  let r = Exec_env.run (Exec_env.of_env (Bfdn_algo.algo t) env) in
  let label what =
    Printf.sprintf "%s/%s/shortcut=%b %s" fam (pol_name pol) shortcut what
  in
  Alcotest.(check bool) (label "explored and home") true (r.explored && r.at_root);
  (r.rounds, r.moves, r.edge_events, Bfdn_algo.reanchors_total t)

let test_family fam () =
  let fi =
    let rec idx i = function
      | [] -> invalid_arg "unknown family"
      | f :: _ when String.equal f fam -> i
      | _ :: rest -> idx (i + 1) rest
    in
    idx 0 families
  in
  let tree =
    Tree_gen.of_family fam ~rng:(Rng.create (1000 + fi)) ~n:500 ~depth_hint:12
  in
  List.iter
    (fun (f, pol, shortcut, want) ->
      if String.equal f fam then
        let got = run_config fam tree pol shortcut in
        let pr (a, b, c, d) = Printf.sprintf "(%d, %d, %d, %d)" a b c d in
        Alcotest.(check string)
          (Printf.sprintf "%s/%s/shortcut=%b stats" fam (pol_name pol) shortcut)
          (pr want) (pr got))
    golden

let suite =
  ( "golden",
    List.map
      (fun fam -> Alcotest.test_case fam `Quick (test_family fam))
      families )
