(* Tests for the continuous-time model (Remark 8's relaxation): the event
   queue, the async environment, and async BFDN. *)

module Pqueue = Bfdn_util.Pqueue
module Tree = Bfdn_trees.Tree
module Tree_gen = Bfdn_trees.Tree_gen
module Aenv = Bfdn_sim.Async_env
module Exec_env = Bfdn_sim.Exec_env
module Rng = Bfdn_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ---- priority queue ---- *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.push q p v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  checkb "a first" true (Pqueue.pop q = Some (1.0, "a"));
  checkb "b second" true (Pqueue.pop q = Some (2.0, "b"));
  checkb "c third" true (Pqueue.pop q = Some (3.0, "c"));
  checkb "empty" true (Pqueue.pop q = None)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q 5.0 v) [ 1; 2; 3; 4 ];
  checkb "fifo on equal priority" true
    (List.map (fun _ -> snd (Option.get (Pqueue.pop q))) [ (); (); (); () ] = [ 1; 2; 3; 4 ])

let test_pqueue_peek () =
  let q = Pqueue.create () in
  Pqueue.push q 2.0 "x";
  checkb "peek" true (Pqueue.peek q = Some (2.0, "x"));
  checki "length" 1 (Pqueue.length q)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing priority" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 200) (float_range 0.0 100.0))
    (fun prios ->
      let q = Pqueue.create () in
      List.iteri (fun i p -> Pqueue.push q p i) prios;
      let rec drain last =
        match Pqueue.pop q with
        | None -> true
        | Some (p, _) -> p >= last && drain p
      in
      drain neg_infinity)

(* ---- async env mechanics ---- *)

let small () = Tree.of_parents [| -1; 0; 0; 1; 1; 2 |]

let test_async_validation () =
  checkb "bad speeds arity" true
    (try
       ignore (Aenv.create ~speeds:[| 1.0 |] (small ()) ~k:2);
       false
     with Invalid_argument _ -> true);
  checkb "non-positive speed" true
    (try
       ignore (Aenv.create ~speeds:[| 1.0; 0.0 |] (small ()) ~k:2);
       false
     with Invalid_argument _ -> true)

let run_async ?speeds tree k =
  let env = Aenv.create ?speeds tree ~k in
  let t = Bfdn.Bfdn_async.make env in
  ignore (Exec_env.run (Exec_env.of_async (Bfdn.Bfdn_async.decide t) env));
  env

let test_async_explores_families () =
  let rng = Rng.create 12 in
  List.iter
    (fun fam ->
      let tree = Tree_gen.of_family fam ~rng ~n:300 ~depth_hint:10 in
      List.iter
        (fun k ->
          let env = run_async tree k in
          checkb (Printf.sprintf "%s k=%d explored" fam k) true (Aenv.fully_explored env);
          checkb (Printf.sprintf "%s k=%d at root" fam k) true (Aenv.all_at_root env))
        [ 1; 5; 17 ])
    Tree_gen.families

(* With unit speeds the event-driven run closely tracks the synchronous
   one (decisions interleave differently at equal timestamps, so equality
   is approximate: exact on the large instances of the bench, within a
   small band on tiny ones). Cross-validates the two simulators. *)
let prop_unit_speeds_match_sync =
  QCheck.Test.make ~name:"unit-speed async tracks synchronous BFDN" ~count:40
    QCheck.(pair (int_range 2 200) (int_range 1 16))
    (fun (n, k) ->
      let r = Rng.create ((n * 53) + k) in
      let tree = Tree.of_parents (Array.init n (fun v -> if v = 0 then -1 else Rng.int r v)) in
      let env = run_async tree k in
      let senv = Bfdn_sim.Env.create tree ~k in
      let st = Bfdn.Bfdn_algo.make senv in
      let sr = Exec_env.run (Exec_env.of_env (Bfdn.Bfdn_algo.algo st) senv) in
      let sync = float_of_int sr.rounds in
      Aenv.fully_explored env && Aenv.all_at_root env
      && Aenv.makespan env <= (1.6 *. sync) +. 5.0
      && Aenv.makespan env >= (0.5 *. sync) -. 5.0)

let test_async_heterogeneous_completes () =
  let tree = Tree_gen.of_family "comb" ~rng:(Rng.create 3) ~n:400 ~depth_hint:12 in
  let speeds = Array.init 8 (fun i -> if i < 4 then 1.0 else 0.25) in
  let env = run_async ~speeds tree 8 in
  checkb "explored" true (Aenv.fully_explored env);
  checkb "everyone home" true (Aenv.all_at_root env);
  Bfdn_sim.Partial_tree.check_invariants (Aenv.view env)

let test_faster_fleet_not_slower () =
  let tree = Tree_gen.of_family "random" ~rng:(Rng.create 9) ~n:500 ~depth_hint:10 in
  let slow = run_async ~speeds:(Array.make 6 0.5) tree 6 in
  let fast = run_async ~speeds:(Array.make 6 1.0) tree 6 in
  checkb "doubling every speed halves the makespan" true
    (Float.abs ((Aenv.makespan slow /. 2.0) -. Aenv.makespan fast) <= 1.0)

let test_work_conservation () =
  (* Total distance over robots is the same as the synchronous run's move
     count on unit speeds: each edge still crossed twice in aggregate plus
     anchor travel. *)
  let tree = Tree_gen.of_family "random" ~rng:(Rng.create 15) ~n:300 ~depth_hint:8 in
  let env = run_async tree 5 in
  let total = ref 0 in
  for i = 0 to 4 do
    total := !total + Aenv.distance_travelled env i
  done;
  checkb "at least 2(n-1) edge crossings" true (!total >= 2 * (Tree.n tree - 1))

let test_makespan_lower_bound () =
  (* No fleet beats the work bound 2(n-1)/sum(speeds). *)
  let tree = Tree_gen.star 201 in
  let speeds = [| 2.0; 1.0; 1.0 |] in
  let env = run_async ~speeds tree 3 in
  let work_lb = 2.0 *. 200.0 /. 4.0 in
  checkb "work lower bound respected" true (Aenv.makespan env >= work_lb)

let test_single_node_async () =
  let env = run_async (Tree.of_parents [| -1 |]) 3 in
  checkf "zero makespan" 0.0 (Aenv.makespan env);
  checkb "explored" true (Aenv.fully_explored env)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let qc t = QCheck_alcotest.to_alcotest t in
  ( "async",
    [
      tc "pqueue order" test_pqueue_order;
      tc "pqueue fifo ties" test_pqueue_fifo_ties;
      tc "pqueue peek" test_pqueue_peek;
      qc prop_pqueue_sorted;
      tc "async validation" test_async_validation;
      tc "async explores all families" test_async_explores_families;
      qc prop_unit_speeds_match_sync;
      tc "heterogeneous fleet completes" test_async_heterogeneous_completes;
      tc "faster fleet not slower" test_faster_fleet_not_slower;
      tc "work conservation" test_work_conservation;
      tc "makespan work lower bound" test_makespan_lower_bound;
      tc "single node" test_single_node_async;
    ] )
