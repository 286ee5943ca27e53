(* Structural tests for the tree substrate: representation, port
   numbering, traversals, and every instance-family generator. *)

module Tree = Bfdn_trees.Tree
module Tree_gen = Bfdn_trees.Tree_gen
module Tree_stats = Bfdn_trees.Tree_stats
module Rng = Bfdn_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let rng () = Rng.create 12345

(* ---- Tree core ---- *)

let small () = Tree.of_parents [| -1; 0; 0; 1; 1; 2 |]
(* 0 -> {1 -> {3, 4}, 2 -> {5}} *)

let test_of_parents_basic () =
  let t = small () in
  checki "n" 6 (Tree.n t);
  checki "edges" 5 (Tree.num_edges t);
  checki "root" 0 (Tree.root t);
  checki "depth" 2 (Tree.depth t);
  checki "max_degree" 3 (Tree.max_degree t)

let test_of_parents_rejects_cycle () =
  (* 1 and 2 point at each other: unreachable from the root. *)
  checkb "cycle rejected" true
    (try
       ignore (Tree.of_parents [| -1; 2; 1 |]);
       false
     with Invalid_argument _ -> true)

let test_of_parents_rejects_bad_root () =
  checkb "root marker required" true
    (try
       ignore (Tree.of_parents [| 0; 0 |]);
       false
     with Invalid_argument _ -> true)

let test_of_parents_rejects_out_of_range () =
  checkb "parent out of range" true
    (try
       ignore (Tree.of_parents [| -1; 7 |]);
       false
     with Invalid_argument _ -> true)

let test_depth_of () =
  let t = small () in
  checki "root depth" 0 (Tree.depth_of t 0);
  checki "leaf depth" 2 (Tree.depth_of t 5)

let test_parent_children () =
  let t = small () in
  checkb "root has no parent" true (Tree.parent t 0 = None);
  checkb "parent of 3" true (Tree.parent t 3 = Some 1);
  checkb "children of 1" true (Tree.children t 1 = [| 3; 4 |])

let test_ports_roundtrip () =
  let t = small () in
  (* Non-root: port 0 is the parent; children at ports >= 1. *)
  checki "port to parent" 0 (Tree.port_to_parent t 1);
  checki "node 1 degree" 3 (Tree.degree t 1);
  checki "via port 0 from 1" 0 (Tree.neighbor_via_port t 1 0);
  checki "via port 1 from 1" 3 (Tree.neighbor_via_port t 1 1);
  checki "port of child" 1 (Tree.port_of_child t 1 3);
  (* Root: all ports are children. *)
  checki "root port 0" 1 (Tree.neighbor_via_port t 0 0);
  checki "root port of child 2" 1 (Tree.port_of_child t 0 2)

let test_is_ancestor () =
  let t = small () in
  checkb "root over all" true (Tree.is_ancestor t 0 5);
  checkb "self" true (Tree.is_ancestor t 3 3);
  checkb "1 over 4" true (Tree.is_ancestor t 1 4);
  checkb "2 not over 4" false (Tree.is_ancestor t 2 4);
  checkb "child not over parent" false (Tree.is_ancestor t 5 2)

let test_path_to_root () =
  let t = small () in
  checkb "path from 5" true (Tree.path_to_root t 5 = [ 5; 2; 0 ]);
  checkb "path from root" true (Tree.path_to_root t 0 = [ 0 ])

let test_subtree () =
  let t = small () in
  checki "subtree of 1" 3 (Tree.subtree_size t 1);
  checki "subtree of root" 6 (Tree.subtree_size t 0);
  checkb "nodes of 1" true (List.sort compare (Tree.subtree_nodes t 1) = [ 1; 3; 4 ])

let test_euler_tour () =
  let t = small () in
  let tour = Tree.euler_tour t in
  checki "length" (2 * Tree.num_edges t + 1) (List.length tour);
  checkb "starts at root" true (List.hd tour = 0);
  checkb "ends at root" true (List.nth tour (List.length tour - 1) = 0);
  (* Consecutive tour nodes are adjacent. *)
  let rec adjacent = function
    | a :: (b :: _ as rest) ->
        (Tree.parent t a = Some b || Tree.parent t b = Some a) && adjacent rest
    | _ -> true
  in
  checkb "steps along edges" true (adjacent tour)

let test_equal () =
  let a = small () and b = small () in
  checkb "equal" true (Tree.equal a b);
  checkb "not equal" false (Tree.equal a (Tree.of_parents [| -1; 0 |]))

let test_to_dot () =
  let s = Tree.to_dot (small ()) in
  checkb "digraph" true (String.length s > 7 && String.sub s 0 7 = "digraph")

(* Random parent arrays always describe valid trees once each node points
   to a strictly smaller index. *)
let prop_of_parents_random =
  QCheck.Test.make ~name:"random parent arrays build valid trees" ~count:200
    QCheck.(int_range 1 200)
    (fun n ->
      let r = Rng.create n in
      let parents = Array.init n (fun v -> if v = 0 then -1 else Rng.int r v) in
      let t = Tree.of_parents parents in
      Tree.validate t;
      Tree.n t = n)

(* ---- generators ---- *)

let test_gen_path () =
  let t = Tree_gen.path 10 in
  checki "n" 10 (Tree.n t);
  checki "depth" 9 (Tree.depth t);
  checki "max degree" 2 (Tree.max_degree t)

let test_gen_star () =
  let t = Tree_gen.star 10 in
  checki "n" 10 (Tree.n t);
  checki "depth" 1 (Tree.depth t);
  checki "max degree" 9 (Tree.max_degree t)

let test_gen_complete () =
  let t = Tree_gen.complete ~arity:2 ~depth:4 in
  checki "n" 31 (Tree.n t);
  checki "depth" 4 (Tree.depth t);
  checki "max degree" 3 (Tree.max_degree t)

let test_gen_spider () =
  let t = Tree_gen.spider ~legs:5 ~leg_len:4 in
  checki "n" 21 (Tree.n t);
  checki "depth" 4 (Tree.depth t);
  checki "degree of root" 5 (Tree.degree t (Tree.root t))

let test_gen_caterpillar () =
  let t = Tree_gen.caterpillar ~spine:4 ~legs_per_node:3 in
  (* 5 spine nodes, 3 leaves each. *)
  checki "n" 20 (Tree.n t);
  checki "depth" 5 (Tree.depth t)

let test_gen_comb () =
  let t = Tree_gen.comb ~spine:3 ~tooth_len:2 in
  (* spine 3 edges + 3 teeth of 2 edges: 1 + 3 + 6 nodes; the deepest
     tooth hangs from spine depth 2, reaching depth 4 *)
  checki "n" 10 (Tree.n t);
  checki "depth" 4 (Tree.depth t)

let test_gen_broom () =
  let t = Tree_gen.broom ~handle:5 ~bristles:7 in
  checki "n" 13 (Tree.n t);
  checki "depth" 6 (Tree.depth t)

let test_gen_random_tree_depth_cap () =
  let t = Tree_gen.random_tree ~rng:(rng ()) ~n:500 ~max_depth:5 () in
  checki "n" 500 (Tree.n t);
  checkb "depth capped" true (Tree.depth t <= 5)

let test_gen_bounded_degree () =
  let t = Tree_gen.random_bounded_degree ~rng:(rng ()) ~n:500 ~delta:3 in
  checki "n" 500 (Tree.n t);
  checkb "degree bounded" true (Tree.max_degree t <= 3)

let test_gen_random_deep () =
  let t = Tree_gen.random_deep ~rng:(rng ()) ~n:300 ~depth:40 in
  checki "n" 300 (Tree.n t);
  checki "depth exact" 40 (Tree.depth t)

let test_gen_binary_trap () =
  let t = Tree_gen.binary_trap ~levels:4 ~tail:3 in
  (* spine of 4 nodes below the root... count: root + 4*(tail + 1 spine) + final tail *)
  checki "n" (1 + (4 * (3 + 1)) + 3) (Tree.n t);
  checkb "depth" true (Tree.depth t >= 4)

let test_gen_hidden_path () =
  let t = Tree_gen.hidden_path ~k:8 ~blocks:3 in
  checkb "positive size" true (Tree.n t > 3 * 8);
  checkb "depth stacked" true (Tree.depth t >= 3 * 3)

let test_gen_of_family_all () =
  List.iter
    (fun fam ->
      let t = Tree_gen.of_family fam ~rng:(rng ()) ~n:300 ~depth_hint:10 in
      Tree.validate t;
      Alcotest.(check bool) (fam ^ " nonempty") true (Tree.n t >= 1))
    Tree_gen.families

let test_gen_of_family_unknown () =
  checkb "unknown family rejected" true
    (try
       ignore (Tree_gen.of_family "nope" ~rng:(rng ()) ~n:10 ~depth_hint:2);
       false
     with Invalid_argument _ -> true)

let test_builder () =
  let b = Tree_gen.Builder.create () in
  let c = Tree_gen.Builder.add_child b (Tree_gen.Builder.root b) in
  let tip = Tree_gen.Builder.add_path b c 3 in
  checki "size" 5 (Tree_gen.Builder.size b);
  let t = Tree_gen.Builder.build b in
  checki "tip depth" 4 (Tree.depth_of t tip)

let test_serialization_roundtrip () =
  let t = small () in
  checkb "roundtrip" true (Tree.equal t (Tree.of_string (Tree.to_string t)))

let test_serialization_errors () =
  List.iter
    (fun s ->
      checkb ("rejects " ^ s) true
        (try
           ignore (Tree.of_string s);
           false
         with Invalid_argument _ -> true))
    [ ""; "3:"; "2:-1"; "2:-1 x"; "1:0"; "abc:-1" ]

let prop_serialization_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string roundtrip" ~count:100
    QCheck.(int_range 1 300)
    (fun n ->
      let r = Rng.create (n * 13) in
      let parents = Array.init n (fun v -> if v = 0 then -1 else Rng.int r v) in
      let t = Tree.of_parents parents in
      Tree.equal t (Tree.of_string (Tree.to_string t)))

(* ---- stats ---- *)

let test_stats_compute () =
  let s = Tree_stats.compute (Tree_gen.star 10) in
  checki "leaves" 9 s.leaves;
  checki "depth" 1 s.depth;
  Alcotest.(check (float 1e-9)) "branching" 9.0 s.avg_branching

(* [Bounds.offline_lb] fed from the statistics of a built tree. *)
let test_offline_lower_bound () =
  let lb t ~k =
    let s = Tree_stats.compute t in
    Bfdn.Bounds.offline_lb ~n:s.n ~k ~d:s.depth
  in
  let checkf = Alcotest.(check (float 1e-9)) in
  checkf "edge-bound regime" 20.0 (lb (Tree_gen.spider ~legs:5 ~leg_len:2) ~k:1);
  checkf "depth regime" 18.0 (lb (Tree_gen.path 10) ~k:9)

let prop_generators_validate =
  QCheck.Test.make ~name:"all families validate at random sizes" ~count:100
    QCheck.(pair (int_range 2 400) (int_range 1 20))
    (fun (n, d) ->
      List.for_all
        (fun fam ->
          let t = Tree_gen.of_family fam ~rng:(Rng.create (n + d)) ~n ~depth_hint:d in
          Tree.validate t;
          true)
        Tree_gen.families)

(* Size guards: absurd requests must fail fast with Invalid_argument
   from the saturating size estimate — not overflow int arithmetic into
   a bogus small allocation, and not attempt a max_int allocation. *)
let test_generators_reject_absurd_sizes () =
  List.iter
    (fun fam ->
      checkb (fam ^ " rejects n=max_int") true
        (try
           ignore
             (Tree_gen.of_family fam ~rng:(Rng.create 1) ~n:max_int
                ~depth_hint:10);
           false
         with Invalid_argument _ -> true))
    Tree_gen.families;
  (* Multiplicative estimates must saturate rather than wrap: a spider
     whose legs * leg_len product overflows would otherwise slip past a
     plain comparison. *)
  checkb "huge but sub-max_int n rejected" true
    (try
       ignore
         (Tree_gen.of_family "star" ~rng:(Rng.create 1)
            ~n:(Sys.max_array_length + 1) ~depth_hint:1);
       false
     with Invalid_argument _ -> true)

let prop_euler_tour_each_edge_twice =
  QCheck.Test.make ~name:"euler tour crosses every edge exactly twice" ~count:100
    QCheck.(int_range 2 200)
    (fun n ->
      let r = Rng.create n in
      let parents = Array.init n (fun v -> if v = 0 then -1 else Rng.int r v) in
      let t = Tree.of_parents parents in
      let counts = Hashtbl.create 16 in
      let rec walk = function
        | a :: (b :: _ as rest) ->
            let key = (min a b, max a b) in
            Hashtbl.replace counts key (1 + try Hashtbl.find counts key with Not_found -> 0);
            walk rest
        | _ -> ()
      in
      walk (Tree.euler_tour t);
      Hashtbl.length counts = n - 1
      && Hashtbl.fold (fun _ c acc -> acc && c = 2) counts true)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let qc t = QCheck_alcotest.to_alcotest t in
  ( "trees",
    [
      tc "of_parents basic" test_of_parents_basic;
      tc "of_parents rejects cycle" test_of_parents_rejects_cycle;
      tc "of_parents rejects bad root" test_of_parents_rejects_bad_root;
      tc "of_parents rejects out of range" test_of_parents_rejects_out_of_range;
      tc "depth_of" test_depth_of;
      tc "parent/children" test_parent_children;
      tc "ports roundtrip" test_ports_roundtrip;
      tc "is_ancestor" test_is_ancestor;
      tc "path_to_root" test_path_to_root;
      tc "subtree" test_subtree;
      tc "euler tour" test_euler_tour;
      tc "equal" test_equal;
      tc "to_dot" test_to_dot;
      qc prop_of_parents_random;
      tc "gen path" test_gen_path;
      tc "gen star" test_gen_star;
      tc "gen complete" test_gen_complete;
      tc "gen spider" test_gen_spider;
      tc "gen caterpillar" test_gen_caterpillar;
      tc "gen comb" test_gen_comb;
      tc "gen broom" test_gen_broom;
      tc "gen random depth cap" test_gen_random_tree_depth_cap;
      tc "gen bounded degree" test_gen_bounded_degree;
      tc "gen random deep" test_gen_random_deep;
      tc "gen binary trap" test_gen_binary_trap;
      tc "gen hidden path" test_gen_hidden_path;
      tc "gen of_family all" test_gen_of_family_all;
      tc "gen of_family unknown" test_gen_of_family_unknown;
      tc "gen rejects absurd sizes" test_generators_reject_absurd_sizes;
      tc "builder" test_builder;
      tc "serialization roundtrip" test_serialization_roundtrip;
      tc "serialization errors" test_serialization_errors;
      qc prop_serialization_roundtrip;
      tc "stats compute" test_stats_compute;
      tc "offline lower bound" test_offline_lower_bound;
      qc prop_generators_validate;
      qc prop_euler_tour_each_edge_twice;
    ] )
