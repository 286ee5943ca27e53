(* Differential suite for the succinct flat-array tree storage: the CSR
   representation behind {!Tree} must agree, query by query, with the
   record-based reference model it replaced (per-node records holding a
   parent pointer, a child list and a depth — the layout of the seed
   implementation). Exercised on the seven golden-suite instances (the
   trees under all 42 golden configs of test_golden.ml) and on random
   parent arrays, plus the lazy-world side: a lazily materialized family
   must expand to the same summary statistics as its eager generator. *)

module Tree = Bfdn_trees.Tree
module Tree_gen = Bfdn_trees.Tree_gen
module Tree_stats = Bfdn_trees.Tree_stats
module Lazy_world = Bfdn_sim.Lazy_world
module Rng = Bfdn_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---- the record-based reference model ---- *)

type ref_node = {
  r_parent : int; (* -1 at the root *)
  mutable r_children : int list; (* increasing id order *)
  r_depth : int;
}

type ref_tree = { r_root : int; r_nodes : ref_node array }

let ref_of_parents ?(root = 0) parents =
  let n = Array.length parents in
  let depth = Array.make n (-1) in
  let rec depth_of v =
    if depth.(v) >= 0 then depth.(v)
    else begin
      let d = if v = root then 0 else 1 + depth_of parents.(v) in
      depth.(v) <- d;
      d
    end
  in
  let nodes =
    Array.init n (fun v ->
        { r_parent = parents.(v); r_children = []; r_depth = depth_of v })
  in
  for v = n - 1 downto 0 do
    if v <> root then
      nodes.(parents.(v)).r_children <- v :: nodes.(parents.(v)).r_children
  done;
  { r_root = root; r_nodes = nodes }

let ref_degree rt v =
  List.length rt.r_nodes.(v).r_children + if v = rt.r_root then 0 else 1

(* Port p of v under the paper's convention, resolved on the reference
   model: parent at port 0 (non-root), children in order after. *)
let ref_neighbor rt v p =
  let nd = rt.r_nodes.(v) in
  if v <> rt.r_root && p = 0 then nd.r_parent
  else List.nth nd.r_children (if v = rt.r_root then p else p - 1)

let ref_stats rt =
  let n = Array.length rt.r_nodes in
  let depth = ref 0 and maxdeg = ref 0 and leaves = ref 0 in
  let internal = ref 0 and child_sum = ref 0 in
  Array.iteri
    (fun v nd ->
      if nd.r_depth > !depth then depth := nd.r_depth;
      let d = ref_degree rt v in
      if d > !maxdeg then maxdeg := d;
      match List.length nd.r_children with
      | 0 -> incr leaves
      | c ->
          incr internal;
          child_sum := !child_sum + c)
    rt.r_nodes;
  ( n, n - 1, !depth, !maxdeg, !leaves,
    if !internal = 0 then 0.
    else float_of_int !child_sum /. float_of_int !internal )

(* ---- query-by-query agreement ---- *)

let agree_exn label tree rt =
  let n = Tree.n tree in
  let ck what v got want =
    if got <> want then
      Alcotest.failf "%s: node %d %s: flat %d <> reference %d" label v what
        got want
  in
  checki (label ^ ": n") (Array.length rt.r_nodes) n;
  checki (label ^ ": root") rt.r_root (Tree.root tree);
  for v = 0 to n - 1 do
    let nd = rt.r_nodes.(v) in
    ck "depth_of" v (Tree.depth_of tree v) nd.r_depth;
    (match Tree.parent tree v with
    | None ->
        if v <> rt.r_root then Alcotest.failf "%s: node %d lost parent" label v
    | Some p -> ck "parent" v p nd.r_parent);
    let kids = Tree.children tree v in
    if Array.to_list kids <> nd.r_children then
      Alcotest.failf "%s: node %d children differ" label v;
    ck "num_children" v (Tree.num_children tree v) (List.length nd.r_children);
    Array.iteri (fun i c -> ck "child i" v (Tree.child tree v i) c) kids;
    let got_iter = ref [] in
    Tree.iter_children tree v (fun c -> got_iter := c :: !got_iter);
    if List.rev !got_iter <> nd.r_children then
      Alcotest.failf "%s: node %d iter_children differ" label v;
    ck "degree" v (Tree.degree tree v) (ref_degree rt v);
    ck "num_ports" v (Tree.num_ports tree v) (ref_degree rt v);
    for p = 0 to ref_degree rt v - 1 do
      ck "neighbor_via_port" v
        (Tree.neighbor_via_port tree v p)
        (ref_neighbor rt v p)
    done;
    if v <> rt.r_root then ck "port_to_parent" v (Tree.port_to_parent tree v) 0;
    List.iteri
      (fun i c ->
        ck "port_of_child" v
          (Tree.port_of_child tree v c)
          (if v = rt.r_root then i else i + 1))
      nd.r_children
  done;
  (* Summary statistics: the one-pass compute and the streaming
     accumulator must both match the reference walk. *)
  let rn, redges, rdepth, rmaxdeg, rleaves, ravg = ref_stats rt in
  let s = Tree_stats.compute tree in
  checki (label ^ ": stats n") rn s.Tree_stats.n;
  checki (label ^ ": stats edges") redges s.Tree_stats.edges;
  checki (label ^ ": stats depth") rdepth s.Tree_stats.depth;
  checki (label ^ ": stats max_degree") rmaxdeg s.Tree_stats.max_degree;
  checki (label ^ ": stats leaves") rleaves s.Tree_stats.leaves;
  checkb (label ^ ": stats avg_branching") true
    (Float.abs (ravg -. s.Tree_stats.avg_branching) < 1e-9);
  let acc = Tree_stats.Acc.create () in
  for v = 0 to n - 1 do
    Tree_stats.Acc.add acc ~depth:rt.r_nodes.(v).r_depth
      ~children:(List.length rt.r_nodes.(v).r_children)
  done;
  checkb (label ^ ": Acc agrees with compute") true
    (Tree_stats.Acc.stats acc = s)

let parents_of tree =
  Array.init (Tree.n tree) (fun v ->
      match Tree.parent tree v with None -> -1 | Some p -> p)

(* The seven instances under the 42-config golden suite, generated
   exactly as test_golden.ml does. *)
let golden_families =
  [ "comb"; "binary"; "random"; "trap"; "caterpillar"; "spider"; "hidden-path" ]

let test_golden_instances () =
  List.iteri
    (fun fi fam ->
      let tree =
        Tree_gen.of_family fam ~rng:(Rng.create (1000 + fi)) ~n:500
          ~depth_hint:12
      in
      agree_exn ("golden " ^ fam) tree (ref_of_parents (parents_of tree)))
    golden_families

(* Random parent arrays: every shape, not just generator output. *)
let prop_random_trees =
  QCheck2.Test.make ~name:"flat CSR tree agrees with record reference"
    ~count:60
    QCheck2.Gen.(pair (int_range 1 200) (int_bound 1_000_000))
    (fun (n, seed) ->
      let r = Rng.create seed in
      let parents = Array.init n (fun v -> if v = 0 then -1 else Rng.int r v) in
      agree_exn "random" (Tree.of_parents parents) (ref_of_parents parents);
      true)

(* ---- lazy worlds expand to the eager instances ---- *)

(* Ids differ (reveal order vs DFS order) so the comparison is on the
   summary statistics, which are relabeling-invariant; [materialize]
   additionally revalidates the tree structure via of_parents. *)
let test_lazy_matches_eager () =
  List.iter
    (fun fam ->
      let n = 700 and depth_hint = 9 in
      let lw = Lazy_world.make ~family:fam ~n ~depth_hint ~seed:42 in
      let tree = Lazy_world.materialize lw in
      let ls = Tree_stats.compute tree in
      checki (fam ^ ": capacity is the node count") (Lazy_world.capacity lw)
        (Tree.n tree);
      if not (String.equal fam "random") then begin
        (* Deterministic families: same (n, depth_hint) as the eager
           generator must give the same instance up to relabeling. *)
        let eager =
          Tree_gen.of_family fam ~rng:(Rng.create 0) ~n ~depth_hint
        in
        let es = Tree_stats.compute eager in
        checkb (fam ^ ": lazy stats = eager stats") true (ls = es)
      end
      else begin
        checki "random: n" n ls.Tree_stats.n;
        checkb "random: depth positive" true (ls.Tree_stats.depth > 0)
      end)
    Lazy_world.families

(* Exploring a lazy world to exhaustion must reveal exactly the
   materialized instance. *)
let test_lazy_full_exploration_stats () =
  let lw = Lazy_world.make ~family:"caterpillar" ~n:400 ~depth_hint:8 ~seed:0 in
  let env = Bfdn_sim.Env.of_world (Lazy_world.world lw) ~k:7 in
  let algo = Bfdn.Bfdn_algo.algo (Bfdn.Bfdn_algo.make env) in
  let r = Bfdn_sim.Exec_env.run (Bfdn_sim.Exec_env.of_env algo env) in
  checkb "explored" true r.Bfdn_sim.Exec_env.explored;
  checki "revealed = capacity" (Lazy_world.capacity lw)
    (Lazy_world.nodes_revealed lw);
  checkb "frozen stats = materialized stats" true
    (Tree_stats.compute (Lazy_world.frozen lw)
    = Tree_stats.compute (Lazy_world.materialize lw))

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let qc t = QCheck_alcotest.to_alcotest t in
  ( "succinct",
    [
      tc "golden instances agree with reference" test_golden_instances;
      qc prop_random_trees;
      tc "lazy worlds match eager generators" test_lazy_matches_eager;
      tc "lazy full exploration stats" test_lazy_full_exploration_stats;
    ] )
