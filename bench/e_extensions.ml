(* E13/E14 — executable extensions beyond the paper's theorems:
   E13: Remark 8's continuous-time relaxation (heterogeneous speeds);
   E14: Section 4.1's memory claim, measured (Δ + D log Δ bits). *)

open Bench_common
module Aenv = Bfdn_sim.Async_env
module Table = Bfdn_util.Table

(* E13's fleets keep a direct loop: the registry's bfdn-async draws its
   speeds from one spread parameter, not from a given fleet. *)
let run_async ?speeds tree k =
  let env = Aenv.create ?speeds tree ~k in
  let t = Bfdn.Bfdn_async.make env in
  ignore (Exec_env.run (Exec_env.of_async (Bfdn.Bfdn_async.decide t) env));
  env

let e13 () =
  header "E13 (continuous time, Remark 8)"
    "async BFDN with heterogeneous robot speeds";
  let tree =
    Bfdn_trees.Tree_gen.of_family "random" ~rng:(Rng.create (seed + 13))
      ~n:(sized 4000) ~depth_hint:15
  in
  let n = Bfdn_trees.Tree.n tree in
  let k = 16 in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "k = %d, n = %d; work lb = 2(n-1)/Σspeeds; sync = synchronous\n\
            BFDN rounds (the unit-speed async run tracks it)." k n)
      [
        ("fleet", Table.Left); ("Σ speeds", Table.Right);
        ("makespan", Table.Right); ("work lb", Table.Right);
        ("makespan/lb", Table.Right); ("explored", Table.Left);
      ]
  in
  let sync = (run_tree "bfdn" tree k).result.rounds in
  let fleets =
    [
      ("uniform 1x", Array.make k 1.0);
      ("half 1x, half 0.25x", Array.init k (fun i -> if i mod 2 = 0 then 1.0 else 0.25));
      ("one 4x scout, rest 1x", Array.init k (fun i -> if i = 0 then 4.0 else 1.0));
      ("geometric decay", Array.init k (fun i -> 1.0 /. float_of_int (1 + i)));
    ]
  in
  List.iter
    (fun (name, speeds) ->
      let env = run_async ~speeds tree k in
      let total = Array.fold_left ( +. ) 0.0 speeds in
      let lb = 2.0 *. float_of_int (n - 1) /. total in
      Table.add_row t
        [
          name;
          Table.ffloat ~decimals:2 total;
          Table.ffloat ~decimals:0 (Aenv.makespan env);
          Table.ffloat ~decimals:0 lb;
          Table.fratio (Aenv.makespan env /. lb);
          Table.fbool (Aenv.fully_explored env && Aenv.all_at_root env);
        ])
    fleets;
  Table.print t;
  Printf.printf "synchronous BFDN on the same instance: %d rounds\n" sync

let e14 () =
  header "E14 (Section 4.1 memory)"
    "measured robot memory vs the Δ + D log Δ bits claim";
  let t =
    Table.create
      ~caption:
        "bits = deepest port stack x port width + finished-port set;\n\
         claim = Δ + (D+1) ceil(log2 Δ)."
      [
        ("family", Table.Left); ("D", Table.Right); ("Δ", Table.Right);
        ("max stack", Table.Right); ("bits used", Table.Right);
        ("claimed bits", Table.Right); ("used/claim", Table.Right);
        ("ok", Table.Left);
      ]
  in
  List.iter
    (fun fam ->
      let tree =
        Bfdn_trees.Tree_gen.of_family fam ~rng:(Rng.create (seed + 14))
          ~n:(sized 3000) ~depth_hint:18
      in
      (* A direct loop: the planner's memory is not part of an outcome. *)
      let env = Env.create tree ~k:16 in
      let state = Bfdn.Bfdn_planner.make env in
      let r =
        Exec_env.run (Exec_env.of_env (Bfdn.Bfdn_planner.algo state) env)
      in
      assert r.explored;
      let d = Env.oracle_depth env and delta = Env.oracle_max_degree env in
      let used = Bfdn.Bfdn_planner.memory_bits_used state in
      let claim = delta + ((d + 1) * Bfdn_util.Mathx.ceil_log2 (max 2 delta)) in
      Table.add_row t
        [
          fam; Table.fint d; Table.fint delta;
          Table.fint (Bfdn.Bfdn_planner.max_stack_length state);
          Table.fint used; Table.fint claim;
          Table.fratio (float_of_int used /. float_of_int claim);
          Table.fbool (used <= claim);
        ])
    Bfdn_trees.Tree_gen.families;
  Table.print t

let run () =
  e13 ();
  e14 ()
