(* Differential oracle for Partial_tree: a naive list-based reference
   implementation is driven through the same randomized reveal traces as
   the real structure, and every observable — port states, parents,
   depths, ports_from_root, subtree_open, min_open_depth, sorted open-node
   buckets — must agree at every step. This is what licenses the
   swap-remove bucket, parent-port-cache and open-branch-counter
   internals: any bookkeeping bug diverges from the reference within a
   few steps. *)

module Partial_tree = Bfdn_sim.Partial_tree
module Env = Bfdn_sim.Env
module Rng = Bfdn_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

(* ---- reference implementation: association lists, recomputed scans ---- *)

module Ref_tree = struct
  type t = {
    root : int;
    mutable revealed : (int * int * int option) list; (* node, nports, parent *)
    mutable resolved : (int * int * int) list; (* v, port, child *)
  }

  let create ~root = { root; revealed = []; resolved = [] }

  let reveal t v ~parent ~num_ports =
    t.revealed <- (v, num_ports, parent) :: t.revealed

  let resolve t v p c = t.resolved <- (v, p, c) :: t.resolved

  let explored t =
    List.sort compare (List.map (fun (v, _, _) -> v) t.revealed)

  let num_ports t v =
    let _, np, _ = List.find (fun (w, _, _) -> w = v) t.revealed in
    np

  let parent t v =
    let _, _, p = List.find (fun (w, _, _) -> w = v) t.revealed in
    p

  let child_behind t v p =
    List.find_opt (fun (w, q, _) -> w = v && q = p) t.resolved
    |> Option.map (fun (_, _, c) -> c)

  (* Mirrors Partial_tree.port_state without depending on its internals. *)
  let port t v p =
    if v <> t.root && p = 0 then Partial_tree.To_parent
    else
      match child_behind t v p with
      | Some c -> Partial_tree.Child c
      | None -> Partial_tree.Dangling

  let rec depth t v =
    match parent t v with None -> 0 | Some p -> 1 + depth t p

  let parent_port t v =
    match List.find_opt (fun (_, _, c) -> c = v) t.resolved with
    | None -> -1
    | Some (_, p, _) -> p

  let rec ports_from_root t v =
    match parent t v with
    | None -> []
    | Some p -> ports_from_root t p @ [ parent_port t v ]

  let dangling_ports t v =
    List.filter
      (fun p -> port t v p = Partial_tree.Dangling)
      (List.init (num_ports t v) Fun.id)

  let is_open t v = dangling_ports t v <> []

  let children t v =
    List.filter_map (fun (w, _, c) -> if w = v then Some c else None) t.resolved

  (* The node or an explored descendant has a dangling port. *)
  let rec subtree_open t v =
    is_open t v || List.exists (subtree_open t) (children t v)

  let num_dangling t =
    List.fold_left (fun acc v -> acc + List.length (dangling_ports t v)) 0 (explored t)

  let min_open_depth t =
    List.fold_left
      (fun acc v ->
        if is_open t v then
          match acc with
          | None -> Some (depth t v)
          | Some d -> Some (min d (depth t v))
        else acc)
      None (explored t)

  let open_at t d =
    List.filter (fun v -> is_open t v && depth t v = d) (explored t)

  let max_depth t = List.fold_left (fun acc v -> max acc (depth t v)) 0 (explored t)
end

(* ---- step-by-step comparison ---- *)

let compare_states pt rt =
  Partial_tree.check_invariants pt;
  let expl = Ref_tree.explored rt in
  checki "num_explored" (List.length expl) (Partial_tree.num_explored pt);
  checki "num_dangling" (Ref_tree.num_dangling rt) (Partial_tree.num_dangling pt);
  List.iter
    (fun v ->
      checkb "is_explored" true (Partial_tree.is_explored pt v);
      let np = Ref_tree.num_ports rt v in
      checki "num_ports" np (Partial_tree.num_ports pt v);
      for p = 0 to np - 1 do
        let want = Ref_tree.port rt v p in
        checkb "port state" true (Partial_tree.port pt v p = want);
        checkb "is_port_dangling" (want = Partial_tree.Dangling)
          (Partial_tree.is_port_dangling pt v p);
        checki "port_child_id"
          (match want with Partial_tree.Child c -> c | _ -> -1)
          (Partial_tree.port_child_id pt v p)
      done;
      checki "depth" (Ref_tree.depth rt v) (Partial_tree.depth_of pt v);
      checkb "parent" true (Ref_tree.parent rt v = Partial_tree.parent pt v);
      checki "parent_port" (Ref_tree.parent_port rt v) (Partial_tree.parent_port pt v);
      check_ints "ports_from_root" (Ref_tree.ports_from_root rt v)
        (Partial_tree.ports_from_root pt v);
      checkb "is_open" (Ref_tree.is_open rt v) (Partial_tree.is_open pt v);
      checkb "subtree_open" (Ref_tree.subtree_open rt v)
        (Partial_tree.subtree_open pt v))
    expl;
  checkb "min_open_depth" true
    (Ref_tree.min_open_depth rt = Partial_tree.min_open_depth pt);
  for d = 0 to Ref_tree.max_depth rt + 1 do
    check_ints "open_nodes_at_depth" (Ref_tree.open_at rt d)
      (Partial_tree.open_nodes_at_depth pt d);
    checki "num_open_at_depth"
      (List.length (Ref_tree.open_at rt d))
      (Partial_tree.num_open_at_depth pt d)
  done

(* ---- randomized reveal traces ---- *)

(* Reveal one child in both structures. *)
let reveal_child pt rt v p c ~num_ports =
  Partial_tree.Internal.reveal_child pt v p c ~num_ports;
  Ref_tree.resolve rt v p c;
  Ref_tree.reveal rt c ~parent:(Some v) ~num_ports

(* A hidden id space spanning several node-store pages, so traces reveal
   ids on every page and the store grows by jumps of whole pages. *)
let paged_n = (3 * Bfdn_sim.Node_store.page_size) + 17

(* Grow a random tree one node per step: pick a uniformly random dangling
   (node, port) and reveal a fresh id behind it with a random degree.
   Exactly the call sequence Env issues during a run. Fresh ids are drawn
   uniformly from the unused ones, so they arrive out of order, as the
   lazy random family's do. *)
let run_trace ~seed ~steps ~check_every =
  let rng = Rng.create seed in
  let pt = Partial_tree.Internal.create ~hidden_n:paged_n ~root:0 in
  let rt = Ref_tree.create ~root:0 in
  let root_ports = 1 + Rng.int rng 3 in
  Partial_tree.Internal.reveal_root pt ~num_ports:root_ports;
  Ref_tree.reveal rt 0 ~parent:None ~num_ports:root_ports;
  compare_states pt rt;
  (* The frontier mirror only drives trace generation; the structures
     under test never see it. *)
  let frontier = ref (List.map (fun p -> (0, p)) (List.init root_ports Fun.id)) in
  let used = Hashtbl.create 64 in
  let rec fresh_id () =
    let c = 1 + Rng.int rng (paged_n - 1) in
    if Hashtbl.mem used c then fresh_id ()
    else begin
      Hashtbl.add used c ();
      c
    end
  in
  let step s =
    match !frontier with
    | [] -> false
    | fr ->
        let i = Rng.int rng (List.length fr) in
        let v, p = List.nth fr i in
        let c = fresh_id () in
        let np = 1 + Rng.int rng 4 in
        reveal_child pt rt v p c ~num_ports:np;
        frontier :=
          List.filteri (fun j _ -> j <> i) fr
          @ List.map (fun q -> (c, q)) (List.init (np - 1) (fun q -> q + 1));
        if s mod check_every = 0 then compare_states pt rt;
        true
  in
  let s = ref 0 in
  while !s < steps && step !s do
    incr s
  done;
  compare_states pt rt

let test_small_every_step () =
  run_trace ~seed:1 ~steps:60 ~check_every:1;
  run_trace ~seed:2 ~steps:60 ~check_every:1

let test_medium_sampled () =
  run_trace ~seed:3 ~steps:250 ~check_every:7;
  run_trace ~seed:4 ~steps:250 ~check_every:7

let test_chain_heavy () =
  (* Seeded so degree-1 reveals dominate: exercises deep buckets with a
     single open node and the O(depth) ports_from_root walk. *)
  let rng = Rng.create 99 in
  let steps = 120 in
  let pt = Partial_tree.Internal.create ~hidden_n:(steps + 1) ~root:0 in
  let rt = Ref_tree.create ~root:0 in
  Partial_tree.Internal.reveal_root pt ~num_ports:1;
  Ref_tree.reveal rt 0 ~parent:None ~num_ports:1;
  let tip = ref (0, 0) in
  for c = 1 to steps do
    let v, p = !tip in
    (* Mostly chain links (2 ports: parent + one child), occasional leaf
       burst that closes the path and reopens it elsewhere is skipped to
       keep a single frontier port. *)
    let np = if Rng.int rng 10 = 0 then 3 else 2 in
    reveal_child pt rt v p c ~num_ports:np;
    tip := (c, 1);
    if c mod 10 = 0 then compare_states pt rt
  done;
  compare_states pt rt

let test_deep_leaf_closes_ancestors () =
  (* A spine of [depth] nodes, each with a side leaf (its branch closes at
     once) and a child further down. One mid-spine node keeps an extra
     dangling port: closing the bottom leaf must close the spine only up
     to that node, and closing its extra port then closes every ancestor
     up to the root. *)
  let depth = 150 and mid = 75 in
  let pt = Partial_tree.Internal.create ~hidden_n:((2 * depth) + 3) ~root:0 in
  let rt = Ref_tree.create ~root:0 in
  Partial_tree.Internal.reveal_root pt ~num_ports:1;
  Ref_tree.reveal rt 0 ~parent:None ~num_ports:1;
  let next_id = ref 1 in
  let reveal v p ~num_ports =
    let c = !next_id in
    incr next_id;
    reveal_child pt rt v p c ~num_ports;
    c
  in
  let spine = Array.make (depth + 1) 0 in
  spine.(1) <- reveal 0 0 ~num_ports:3;
  for d = 1 to depth - 1 do
    ignore (reveal spine.(d) 2 ~num_ports:1);
    spine.(d + 1) <- reveal spine.(d) 1 ~num_ports:(if d + 1 = mid then 4 else 3)
  done;
  ignore (reveal spine.(depth) 2 ~num_ports:1);
  compare_states pt rt;
  checkb "bottom open" true (Partial_tree.subtree_open pt spine.(depth));
  ignore (reveal spine.(depth) 1 ~num_ports:1);
  compare_states pt rt;
  for d = 1 to depth do
    checkb
      (Printf.sprintf "depth %d open iff at or above the mid node" d)
      (d <= mid)
      (Partial_tree.subtree_open pt spine.(d))
  done;
  checkb "root open" true (Partial_tree.subtree_open pt 0);
  ignore (reveal spine.(mid) 3 ~num_ports:1);
  compare_states pt rt;
  checkb "complete" true (Partial_tree.complete pt);
  checkb "root closed" false (Partial_tree.subtree_open pt 0);
  for d = 1 to depth do
    checkb "spine closed" false (Partial_tree.subtree_open pt spine.(d))
  done

(* ---- the round loop allocates nothing in steady state ---- *)

(* Minor-heap words per robot-round between the end of round 1 and the
   end of the run. Round 1 is excluded so one-time setup (env, algorithm
   scratch, first routes) does not count; geometric scratch growth after
   it amortizes to nothing over the run. *)
let minor_words_per_robot_round env algo =
  let w0 = ref 0.0 in
  let on_round env = if Env.round env = 1 then w0 := Gc.minor_words () in
  let r = Bfdn_sim.Runner.run ~on_round algo env in
  let words = Gc.minor_words () -. !w0 in
  checkb "explored" true r.Bfdn_sim.Runner.explored;
  words /. float_of_int (Env.k env * max 1 (r.Bfdn_sim.Runner.rounds - 1))

let test_round_loop_allocation_free () =
  let check label env algo_name =
    let algo = Bfdn_scenario.Algo_registry.instantiate algo_name env in
    let w = minor_words_per_robot_round env algo in
    if w >= 1.0 then
      Alcotest.failf "%s/%s k=%d: %.2f minor words per robot-round (want < 1)"
        label algo_name (Env.k env) w
  in
  List.iter
    (fun (family, depth_hint) ->
      let tree =
        Bfdn_trees.Tree_gen.of_family family ~rng:(Rng.create 7) ~n:5000
          ~depth_hint
      in
      List.iter
        (fun k ->
          List.iter
            (fun algo -> check family (Env.create tree ~k) algo)
            [ "bfdn"; "cte" ])
        [ 8; 64 ])
    [ ("comb", 70); ("trap", 40); ("random", 25) ];
  let lw =
    Bfdn_sim.Lazy_world.make ~family:"binary" ~n:100_000 ~depth_hint:17 ~seed:7
  in
  check "lazy binary" (Env.of_world (Bfdn_sim.Lazy_world.world lw) ~k:256) "bfdn"

(* ---- page edges: a lazy run equals the run on its materialized tree ---- *)

(* At n = page - 1, page and page + 1 the store's last page holds all but
   one id, exactly one page, or a single id. Star and broom label their
   nodes the same whatever the exploration order (a node's children are
   promised at once, and only one node per depth has any), so the lazy
   run and the run on the materialized tree must agree exactly. *)
let test_lazy_equals_materialized_at_page_edges () =
  let page = Bfdn_sim.Node_store.page_size in
  List.iter
    (fun (family, depth_hint) ->
      List.iter
        (fun n ->
          let make () =
            Bfdn_sim.Lazy_world.make ~family ~n ~depth_hint ~seed:0
          in
          let run env =
            let algo = Bfdn.Bfdn_algo.(algo (make env)) in
            let r = Bfdn_sim.Runner.run algo env in
            Partial_tree.check_invariants (Env.view env);
            (r, Partial_tree.num_explored (Env.view env))
          in
          let lw = make () in
          checki (Printf.sprintf "%s n=%d capacity" family n) n
            (Bfdn_sim.Lazy_world.capacity lw);
          let lazy_run = run (Env.of_world (Bfdn_sim.Lazy_world.world lw) ~k:64) in
          let eager_run =
            run (Env.create (Bfdn_sim.Lazy_world.materialize (make ())) ~k:64)
          in
          checkb
            (Printf.sprintf "%s n=%d: lazy run = materialized run" family n)
            true (lazy_run = eager_run);
          checki (Printf.sprintf "%s n=%d explored" family n) n (snd lazy_run))
        [ page - 1; page; page + 1 ])
    [ ("star", 1); ("broom", 20) ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "diff",
    [
      tc "random traces, checked every step" test_small_every_step;
      tc "random traces, sampled checks" test_medium_sampled;
      tc "chain-heavy trace" test_chain_heavy;
      tc "deep leaf closes every ancestor" test_deep_leaf_closes_ancestors;
      tc "round loop allocates < 1 word per robot-round"
        test_round_loop_allocation_free;
      tc "lazy run = materialized run at page edges"
        test_lazy_equals_materialized_at_page_edges;
    ] )
