(* Tests for the guarantee formulas and the Figure 1 region machinery. *)

module Bounds = Bfdn.Bounds
module Regions = Bfdn.Regions

let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-6))

(* A run finishes in no fewer rounds than [offline_lb]: one robot
   walking a star takes 2 (n - 1) rounds, BFDN with k | n - 1 robots
   takes 2 (n - 1) / k. *)
let test_offline_lb () =
  checkf "edge regime" 200.0 (Bounds.offline_lb ~n:1000 ~k:10 ~d:5);
  checkf "depth regime" 400.0 (Bounds.offline_lb ~n:1000 ~k:10 ~d:200);
  let module Env = Bfdn_sim.Env in
  let module Exec_env = Bfdn_sim.Exec_env in
  let rounds n k make =
    let env = Env.create (Bfdn_trees.Tree_gen.star n) ~k in
    let r = Exec_env.run (Exec_env.of_env (make env) env) in
    checkb "explored" true r.Exec_env.explored;
    let lb = Bounds.offline_lb ~n ~k ~d:1 in
    if float_of_int r.Exec_env.rounds < lb then
      Alcotest.failf "star n=%d k=%d: %d rounds, below offline_lb %g" n k
        r.Exec_env.rounds lb
  in
  rounds 50 1 Bfdn_baselines.Dfs_single.make;
  rounds 65 8 (fun env -> Bfdn.Bfdn_algo.(algo (make env)))

let test_dfs () = checkf "dfs" 198.0 (Bounds.dfs ~n:100)

let test_bfdn_formula () =
  (* 2n/k + d^2 (min(log k, log delta) + 3) *)
  let v = Bounds.bfdn ~n:1000 ~k:10 ~d:5 ~delta:3 in
  checkf "bfdn" ((2000.0 /. 10.0) +. (25.0 *. (log 3.0 +. 3.0))) v

let test_bfdn_k1_exact () =
  (* With one robot the additive term is 3 d^2 (log 1 = 0). *)
  checkf "k=1" (2.0 *. 1000.0 +. (4.0 *. 3.0)) (Bounds.bfdn ~n:1000 ~k:1 ~d:2 ~delta:1)

let test_bfdn_monotone () =
  let v k = Bounds.bfdn ~n:100000 ~k ~d:10 ~delta:1000 in
  checkb "more robots help" true (v 2 > v 4 && v 4 > v 16)

let test_breakdown_no_delta () =
  (* the break-down variant must not benefit from small delta *)
  let a = Bounds.bfdn ~n:1000 ~k:100 ~d:10 ~delta:2 in
  let b = Bounds.bfdn_breakdown ~n:1000 ~k:100 ~d:10 in
  checkb "breakdown >= bfdn" true (b >= a)

let test_bfdn_rec_ell1_close_to_bfdn () =
  (* Theorem 10 at ell = 1 is the Theorem 1 shape up to a factor ~4. *)
  let a = Bounds.bfdn ~n:50000 ~k:64 ~d:20 ~delta:64 in
  let b = Bounds.bfdn_rec ~n:50000 ~k:64 ~d:20 ~delta:64 ~ell:1 in
  checkb "within factor 8" true (b <= 8.0 *. a && a <= b)

let test_bfdn_rec_best () =
  let v, ell = Bounds.bfdn_rec_best ~n:100000 ~k:4096 ~d:300 ~delta:4096 in
  checkb "admissible ell" true (ell >= 1);
  List.iter
    (fun l ->
      checkb "is the minimum" true
        (v <= Bounds.bfdn_rec ~n:100000 ~k:4096 ~d:300 ~delta:4096 ~ell:l))
    [ 1; 2; 3 ]

let test_urn_game_formula () =
  checkf "urn" ((8.0 *. log 8.0) +. 16.0) (Bounds.urn_game ~delta:100 ~k:8);
  checkf "urn delta-limited" ((8.0 *. log 3.0) +. 16.0) (Bounds.urn_game ~delta:3 ~k:8)

let test_lower_bound_k_eq_n () =
  checkf "d^2/16" 25.0 (Bounds.lower_bound_k_eq_n ~d:20)

(* ---- Regions ---- *)

let test_winner_requires_d_lt_n () =
  checkb "d >= n rejected" true
    (try
       ignore (Regions.winner ~n:5 ~k:4 ~d:5 ~delta:3);
       false
     with Invalid_argument _ -> true)

(* The log-space formulas used by the map agree with the direct formulas
   at integer scales. *)
let prop_logspace_matches_bounds =
  QCheck.Test.make ~name:"region argmin consistent with Bounds formulas" ~count:200
    QCheck.(triple (int_range 10 2_000_000) (int_range 2 4096) (int_range 1 1000))
    (fun (n, k, d) ->
      QCheck.assume (d < n);
      let _, v = Regions.winner ~n ~k ~d ~delta:k in
      let direct =
        List.fold_left Float.min infinity
          [
            Bounds.cte ~n ~k ~d;
            Bounds.yostar ~n ~k ~d;
            Bounds.bfdn ~n ~k ~d ~delta:k;
            fst (Bounds.bfdn_rec_best ~n ~k ~d ~delta:k);
          ]
      in
      Float.abs (v -. direct) /. direct < 0.05)

let test_winner_shallow_wide_is_bfdn () =
  (* Shallow, very wide: BFDN's 2n/k term dominates everyone. *)
  let a, _ = Regions.winner ~n:10_000_000 ~k:256 ~d:4 ~delta:256 in
  checkb "bfdn wins" true (a = Regions.Bfdn)

let test_winner_deep_is_cte () =
  (* Nearly path-like: CTE's n/log k + D is unbeatable among the four. *)
  let a, _ = Regions.winner ~n:1000 ~k:256 ~d:900 ~delta:256 in
  checkb "cte wins" true (a = Regions.Cte)

let test_analytic_boundaries () =
  checkb "bfdn beats cte on wide" true (Regions.bfdn_beats_cte ~n:1_000_000 ~k:64 ~d:10);
  checkb "cte beats bfdn on deep" false (Regions.bfdn_beats_cte ~n:1000 ~k:64 ~d:100);
  checkb "bfdn beats yostar" true (Regions.bfdn_beats_yostar ~n:1_000_000 ~k:8 ~d:10);
  checkb "bfdn_rec boundary" true (Regions.bfdn_rec_beats_cte ~n:100_000_000 ~k:64 ~d:10 ~ell:2)

let test_map_analytic () =
  let m = Regions.compute_map ~rows:16 ~cols:40 ~k:1024 () in
  checkb "has BFDN region" true
    (Array.exists (fun row -> Array.exists (fun c -> c = Regions.Bfdn) row) m.Regions.cells);
  checkb "has CTE region" true
    (Array.exists (fun row -> Array.exists (fun c -> c = Regions.Cte) row) m.Regions.cells);
  let s = Regions.render m in
  checkb "renders" true (String.length s > 100)

let test_map_argmin_agreement () =
  let m = Regions.compute_map ~rows:20 ~cols:50 ~mode:Regions.Argmin ~k:256 () in
  let agreement = Regions.agreement_with_analytic m in
  checkb "argmin matches Appendix A on the CTE/BFDN boundary" true (agreement >= 0.9)

let test_names () =
  checkb "names" true
    (Regions.name Regions.Cte = "CTE"
    && Regions.name Regions.Bfdn = "BFDN"
    && Regions.name Regions.Yostar = "Yo*"
    && Regions.name Regions.Bfdn_rec = "BFDN_l")

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let qc t = QCheck_alcotest.to_alcotest t in
  ( "bounds",
    [
      tc "offline lb" test_offline_lb;
      tc "dfs" test_dfs;
      tc "bfdn formula" test_bfdn_formula;
      tc "bfdn k=1" test_bfdn_k1_exact;
      tc "bfdn monotone in k" test_bfdn_monotone;
      tc "breakdown ignores delta" test_breakdown_no_delta;
      tc "bfdn_rec ell=1 close to bfdn" test_bfdn_rec_ell1_close_to_bfdn;
      tc "bfdn_rec best" test_bfdn_rec_best;
      tc "urn game formula" test_urn_game_formula;
      tc "lower bound k=n" test_lower_bound_k_eq_n;
      tc "winner requires d<n" test_winner_requires_d_lt_n;
      qc prop_logspace_matches_bounds;
      tc "shallow wide is bfdn" test_winner_shallow_wide_is_bfdn;
      tc "deep is cte" test_winner_deep_is_cte;
      tc "analytic boundaries" test_analytic_boundaries;
      tc "map analytic regions" test_map_analytic;
      tc "map argmin agreement" test_map_argmin_agreement;
      tc "algorithm names" test_names;
    ] )
