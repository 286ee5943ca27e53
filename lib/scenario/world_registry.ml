module Tree_gen = Bfdn_trees.Tree_gen
module Adversary = Bfdn_sim.Adversary
module Rng = Bfdn_util.Rng
module Lazy_world = Bfdn_sim.Lazy_world
module Mathx = Bfdn_util.Mathx
module Lru = Bfdn_util.Lru

type ctx = { rng : Rng.t; params : Param.binding list }

type kind =
  | Tree of (ctx -> Bfdn_trees.Tree.t)
  | Graph of (ctx -> Bfdn_graphs.Graph.t * int)

type entry = {
  name : string;
  doc : string;
  params : Param.spec list;
  kind : kind;
  size : Param.binding list -> int;
}

type policy_entry = {
  p_name : string;
  p_doc : string;
  p_params : Param.spec list;
  p_make : ctx -> Lazy_world.t;
}

type source =
  | Eager_tree of { build : Rng.t -> Bfdn_trees.Tree.t; deterministic : bool }
  | Lazy_tree of (Rng.t -> Lazy_world.t)
  | Adaptive of (Rng.t -> Lazy_world.t)
  | Graph_world of (Rng.t -> Bfdn_graphs.Graph.t * Bfdn_graphs.Graph.node)

(* An eager world holds every node up front (a binary tree of 16·10^6
   nodes at k = 64 peaks at 1.5 GB); beyond this the huge tier's
   scale=lazy is the way. *)
let max_eager_nodes = 1 lsl 24

(* the accepted values of a graph's size parameters *)
let sizes = Param.Ints (1, max_eager_nodes)
let counts = Param.Ints (0, max_eager_nodes)

(* ---- tree worlds: one entry per Tree_gen family ---- *)

let tree_params =
  [
    Param.spec "n" (Param.Int 5000)
      "target node count (scale=eager: at most 2^24, like depth_hint)"
      ~accepts:(Param.Ints (1, max_int));
    Param.spec "depth_hint" (Param.Int 20)
      "depth hint where the family has a depth parameter"
      ~accepts:(Param.Ints (1, max_int));
    Param.spec "scale" (Param.String "eager")
      "world materialization: \"eager\" builds the tree up front, \
       \"lazy\" generates nodes at reveal so a run holds O(explored) \
       memory (the huge tier; supported families only, at most 2^30 \
       nodes)"
      ~accepts:(Param.One_of [ "eager"; "lazy" ]);
  ]

(* Documentation strings for Tree_gen.of_family names. The entry list is
   generated from Tree_gen.families itself, so a family added there is
   automatically registered (a missing doc fails loudly at module
   init). *)
let family_docs =
  [
    ("path", "a single path — D = n-1, the depth-dominated extreme");
    ("star", "root plus n-1 leaves — the breadth-dominated extreme");
    ("binary", "complete binary tree of depth ~log2 n");
    ("ternary", "complete ternary tree");
    ("spider", "disjoint legs of equal length hanging off the root");
    ("caterpillar", "spine with leaves on every spine node");
    ("comb", "spine with a downward tooth per spine node (deep, adversarial)");
    ("broom", "a handle path ending in a star");
    ("random", "random recursive tree (uniform parent)");
    ("random-deep", "random tree with a guaranteed depth-D root path");
    ("bounded3", "random tree with maximum degree 3");
    ("trap", "recursive binary trap — halves splitting teams at every level");
    ("hidden-path", "chained binary blocks — the CTE-tightness regime [11]");
  ]

let tree_entries =
  List.map
    (fun family ->
      let doc =
        match List.assoc_opt family family_docs with
        | Some d -> d
        | None ->
            invalid_arg
              ("World_registry: tree family without a doc string: " ^ family)
      in
      {
        name = family;
        doc;
        params = tree_params;
        kind =
          Tree
            (fun c ->
              let n = Param.get_int ~schema:tree_params c.params "n" in
              let depth_hint =
                Param.get_int ~schema:tree_params c.params "depth_hint"
              in
              Tree_gen.of_family family ~rng:c.rng ~n ~depth_hint);
        size =
          (fun params ->
            let gi = Param.get_int ~schema:tree_params params in
            max (gi "n") (gi "depth_hint"));
      })
    Tree_gen.families

(* ---- grid world ---- *)

let grid_params =
  [
    Param.spec "width" (Param.Int 30)
      "grid width in cells (width x height at most 2^24)" ~accepts:sizes;
    Param.spec "height" (Param.Int 12) "grid height in cells" ~accepts:sizes;
    Param.spec "obstacles" (Param.Int 10)
      "number of random rectangular obstacles" ~accepts:counts;
    Param.spec "max_side" (Param.Int 0)
      "largest obstacle side (0 = auto: max 2 (width/7))"
      ~accepts:(Param.Ints (0, max_int));
  ]

let grid_entry =
  {
    name = "grid";
    doc =
      "warehouse grid with rectangular obstacles — graph exploration via \
       bfdn-graph";
    params = grid_params;
    kind =
      Graph
        (fun c ->
          let gi k = Param.get_int ~schema:grid_params c.params k in
          let width = gi "width" and height = gi "height" in
          let max_side =
            match gi "max_side" with 0 -> max 2 (width / 7) | m -> m
          in
          let g =
            Bfdn_graphs.Grid.make
              (Bfdn_graphs.Grid.random_spec ~rng:c.rng ~width ~height
                 ~obstacle_count:(gi "obstacles") ~max_side)
          in
          (Bfdn_graphs.Grid.graph g, Bfdn_graphs.Grid.origin g));
    size =
      (fun params ->
        let gi k = Param.get_int ~schema:grid_params params k in
        Mathx.mul_cap (gi "width") (gi "height"));
  }

(* ---- general graph worlds ---- *)

let random_graph_params =
  [
    Param.spec "n" (Param.Int 400) "node count" ~accepts:sizes;
    Param.spec "extra_edges" (Param.Int 120)
      "chords added on top of the random spanning tree (edge density)"
      ~accepts:counts;
  ]

let layered_params =
  [
    Param.spec "layers" (Param.Int 12)
      "number of layers (layers x width at most 2^24)" ~accepts:counts;
    Param.spec "width" (Param.Int 8) "nodes per layer" ~accepts:sizes;
    Param.spec "chords" (Param.Int 30) "extra same-or-adjacent-layer chords"
      ~accepts:counts;
  ]

let graph_entries =
  [
    {
      name = "random-graph";
      doc =
        "connected random graph — spanning tree plus uniform chords \
         (general-graph exploration, Proposition 9)";
      params = random_graph_params;
      kind =
        Graph
          (fun c ->
            let gi k = Param.get_int ~schema:random_graph_params c.params k in
            ( Bfdn_graphs.Graph_gen.random_connected ~rng:c.rng ~n:(gi "n")
                ~extra_edges:(gi "extra_edges"),
              0 ));
      size =
        (fun params -> Param.get_int ~schema:random_graph_params params "n");
    };
    {
      name = "layered";
      doc =
        "layered graph — consecutive layers fully wired through a random \
         matching plus chords; origin in layer 0";
      params = layered_params;
      kind =
        Graph
          (fun c ->
            let gi k = Param.get_int ~schema:layered_params c.params k in
            ( Bfdn_graphs.Graph_gen.layered ~rng:c.rng ~layers:(gi "layers")
                ~width:(gi "width") ~chords:(gi "chords"),
              0 ));
      size =
        (fun params ->
          let gi k = Param.get_int ~schema:layered_params params k in
          Mathx.mul_cap (gi "layers") (gi "width"));
    };
  ]

let worlds = tree_entries @ [ grid_entry ] @ graph_entries

let find name = List.find_opt (fun e -> String.equal e.name name) worlds

let tree_names =
  List.filter_map
    (fun e -> match e.kind with Tree _ -> Some e.name | Graph _ -> None)
    worlds

let graph_names =
  List.filter_map
    (fun e -> match e.kind with Graph _ -> Some e.name | Tree _ -> None)
    worlds

(* ---- adaptive adversary policies ---- *)

let budget_params =
  [
    (* the budget sizes the node store, bounded like a scale=lazy
       instance *)
    Param.spec "capacity" (Param.Int 3000)
      "total node budget (ids pre-allocated at promise time)"
      ~accepts:(Param.Ints (1, Bfdn_sim.Node_store.max_ids));
    Param.spec "depth_budget" (Param.Int 200)
      "maximum tree depth the adversary may reach"
      ~accepts:(Param.Ints (0, max_int));
  ]

let budgets params =
  ( Param.get_int ~schema:budget_params params "capacity",
    Param.get_int ~schema:budget_params params "depth_budget" )

let corridor_params =
  budget_params
  @ [
      Param.spec "threshold" (Param.Int 2)
        "crowd size above which the corridor stops branching"
        ~accepts:(Param.Ints (1, max_int));
    ]

let random_policy_params =
  budget_params
  @ [
      Param.spec "max_children" (Param.Int 3)
        "children are uniform in 0..max_children per reveal"
        ~accepts:(Param.Ints (0, max_int));
    ]

let policies =
  [
    {
      p_name = "thick-comb";
      p_doc =
        "[11]-style comb grown online: the spine advances one edge per round \
         while teeth swallow half of every proportional split";
      p_params = budget_params;
      p_make =
        (fun c ->
          let capacity, depth_budget = budgets c.params in
          Adversary.make_rec ~capacity ~depth_budget Adversary.thick_comb);
    };
    {
      p_name = "corridor";
      p_doc =
        "crowds at least threshold strong march a single corridor; smaller \
         groups keep being split";
      p_params = corridor_params;
      p_make =
        (fun c ->
          let capacity, depth_budget = budgets c.params in
          let threshold =
            Param.get_int ~schema:corridor_params c.params "threshold"
          in
          Lazy_world.adaptive ~capacity ~depth_budget
            (Adversary.corridor_crowds ~threshold));
    };
    {
      p_name = "bomb";
      p_doc = "spend the whole node budget at the first reveals (shallow bomb)";
      p_params = budget_params;
      p_make =
        (fun c ->
          let capacity, depth_budget = budgets c.params in
          Lazy_world.adaptive ~capacity ~depth_budget Adversary.greedy_widest);
    };
    {
      p_name = "miser";
      p_doc = "one child per reveal — the tree degenerates to a path";
      p_params = budget_params;
      p_make =
        (fun c ->
          let capacity, depth_budget = budgets c.params in
          Lazy_world.adaptive ~capacity ~depth_budget Adversary.miser);
    };
    {
      p_name = "random";
      p_doc = "uniform 0..max_children children per reveal";
      p_params = random_policy_params;
      p_make =
        (fun c ->
          let capacity, depth_budget = budgets c.params in
          let max_children =
            Param.get_int ~schema:random_policy_params c.params "max_children"
          in
          Lazy_world.adaptive ~capacity ~depth_budget
            (Adversary.random_policy c.rng ~max_children));
    };
  ]

let find_policy name =
  List.find_opt (fun p -> String.equal p.p_name name) policies

let policy_names = List.map (fun p -> p.p_name) policies

let policy_prefix = "adv:"

let cli_choices =
  List.map
    (fun n -> (n, n))
    (List.map (fun e -> e.name) worlds
    @ List.map (fun n -> policy_prefix ^ n) policy_names)

(* ---- the instance cache ----

   A deterministic family's tree is a pure function of (name, n,
   depth_hint) (Tree_gen.deterministic_family), the same fact a seed
   batch's identical-lane collapse rests on. So every eager build of one such
   instance in the process returns one tree, kept in a node-weighted
   LRU; Tree.t is immutable, so runs on any domain may share it. The
   build runs outside the lock: two domains that miss on one key both
   build, and the first tree inserted is the one kept. *)

let instance_cache_budget = 1 lsl 18

let instance_cache =
  Lru.create ~budget:instance_cache_budget ~weight:Bfdn_trees.Tree.n

let instance_cache_stats () = Lru.stats instance_cache

(* The key holds everything a tree build reads: the name and the
   default-filled size parameters (scale is eager here). *)
let cached name params build =
  let gi = Param.get_int ~schema:tree_params params in
  let key =
    Printf.sprintf "%s n=%d depth_hint=%d" name (gi "n") (gi "depth_hint")
  in
  fun rng ->
    match Lru.find instance_cache key with
    | Some tree -> tree
    | None -> Lru.add instance_cache key (build rng)

(* ---- sources: the one place a world name and its parameters are
   checked and bound ---- *)

let ( let* ) = Result.bind

let lazy_source name params =
  let n = Param.get_int ~schema:tree_params params "n" in
  let depth_hint = Param.get_int ~schema:tree_params params "depth_hint" in
  if not (Lazy_world.supported name) then
    Error
      (Printf.sprintf "world %S has no lazy materialization (lazy families: %s)"
         name
         (String.concat ", " Lazy_world.families))
  else
    let cap = Lazy_world.instance_capacity ~family:name ~n ~depth_hint in
    if cap > Bfdn_sim.Node_store.max_ids then
      Error
        (Printf.sprintf
           "world %S: the scale=lazy instance has %d nodes, above the %d-node \
            id range of lazy worlds"
           name cap Bfdn_sim.Node_store.max_ids)
    else
      (* The seed is one draw off the instance stream — the stream the
         eager build would consume — so the instance is a function of the
         spec. *)
      Ok
        (Lazy_tree
           (fun rng ->
             let seed = Int64.to_int (Rng.bits64 rng) land max_int in
             Lazy_world.make ~family:name ~n ~depth_hint ~seed))

let world_source name params =
  match find name with
  | None -> Error (Printf.sprintf "unknown world %S" name)
  | Some e -> (
      let* () =
        Result.map_error
          (fun msg -> Printf.sprintf "world %S: %s" name msg)
          (Param.validate ~schema:e.params params)
      in
      match e.kind with
      | Tree _ when Param.get_string ~schema:tree_params params "scale" = "lazy"
        ->
          lazy_source name params
      | kind ->
          let size = e.size params in
          if size > max_eager_nodes then
            Error
              (Printf.sprintf
                 "world %S: %d nodes is above the %d-node limit of eagerly \
                  built worlds"
                 name size max_eager_nodes)
          else
            Ok
              (match kind with
              | Tree build ->
                  let build rng = build { rng; params } in
                  if Tree_gen.deterministic_family name then
                    Eager_tree
                      { build = cached name params build; deterministic = true }
                  else Eager_tree { build; deterministic = false }
              | Graph build -> Graph_world (fun rng -> build { rng; params })))

let policy_source name params =
  match find_policy name with
  | None -> Error (Printf.sprintf "unknown adversary policy %S" name)
  | Some p ->
      let* () =
        Result.map_error
          (fun msg -> Printf.sprintf "adversary %S: %s" name msg)
          (Param.validate ~schema:p.p_params params)
      in
      Ok (Adaptive (fun rng -> p.p_make { rng; params }))
