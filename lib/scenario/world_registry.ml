module Tree_gen = Bfdn_trees.Tree_gen
module Adversary = Bfdn_sim.Adversary
module Rng = Bfdn_util.Rng

type ctx = { rng : Rng.t; params : Param.binding list }

type kind =
  | Tree of (ctx -> Bfdn_trees.Tree.t)
  | Grid of (ctx -> Bfdn_graphs.Grid.t)
  | Graph of (ctx -> Bfdn_graphs.Graph.t * int)

type entry = { name : string; doc : string; params : Param.spec list; kind : kind }

type policy_entry = {
  p_name : string;
  p_doc : string;
  p_params : Param.spec list;
  p_make : ctx -> Bfdn_sim.Lazy_world.t;
}

(* ---- tree worlds: one entry per Tree_gen family ---- *)

let tree_params =
  [
    { Param.key = "n"; doc = "target node count"; default = Param.Int 5000 };
    {
      Param.key = "depth_hint";
      doc = "depth hint where the family has a depth parameter";
      default = Param.Int 20;
    };
    {
      Param.key = "scale";
      doc =
        "world materialization: \"eager\" builds the tree up front, \
         \"lazy\" generates nodes at reveal so a run holds O(explored) \
         memory (the huge tier; supported families only, at most 2^30 \
         nodes)";
      default = Param.String "eager";
    };
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
      })
    Tree_gen.families

(* ---- grid world ---- *)

let grid_params =
  [
    { Param.key = "width"; doc = "grid width in cells"; default = Param.Int 30 };
    { Param.key = "height"; doc = "grid height in cells"; default = Param.Int 12 };
    {
      Param.key = "obstacles";
      doc = "number of random rectangular obstacles";
      default = Param.Int 10;
    };
    {
      Param.key = "max_side";
      doc = "largest obstacle side (0 = auto: max 2 (width/7))";
      default = Param.Int 0;
    };
  ]

let grid_entry =
  {
    name = "grid";
    doc =
      "warehouse grid with rectangular obstacles — graph exploration via \
       bfdn-graph (the grid subcommand)";
    params = grid_params;
    kind =
      Grid
        (fun c ->
          let gi k = Param.get_int ~schema:grid_params c.params k in
          let width = gi "width" and height = gi "height" in
          let max_side =
            match gi "max_side" with 0 -> max 2 (width / 7) | m -> m
          in
          Bfdn_graphs.Grid.make
            (Bfdn_graphs.Grid.random_spec ~rng:c.rng ~width ~height
               ~obstacle_count:(gi "obstacles") ~max_side));
  }

(* ---- general graph worlds ---- *)

let random_graph_params =
  [
    { Param.key = "n"; doc = "node count"; default = Param.Int 400 };
    {
      Param.key = "extra_edges";
      doc = "chords added on top of the random spanning tree (edge density)";
      default = Param.Int 120;
    };
  ]

let layered_params =
  [
    { Param.key = "layers"; doc = "number of layers"; default = Param.Int 12 };
    { Param.key = "width"; doc = "nodes per layer"; default = Param.Int 8 };
    {
      Param.key = "chords";
      doc = "extra same-or-adjacent-layer chords";
      default = Param.Int 30;
    };
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
    };
  ]

let worlds = tree_entries @ [ grid_entry ] @ graph_entries

let find name = List.find_opt (fun e -> String.equal e.name name) worlds

let tree_names =
  List.filter_map
    (fun e -> match e.kind with Tree _ -> Some e.name | Grid _ | Graph _ -> None)
    worlds

let graph_names =
  List.filter_map
    (fun e -> match e.kind with Grid _ | Graph _ -> Some e.name | Tree _ -> None)
    worlds

let cli_world_choices = List.map (fun n -> (n, n)) tree_names

let build_tree ?rng ?(params = []) name =
  match find name with
  | None -> invalid_arg ("World_registry: unknown world " ^ name)
  | Some e -> (
      match e.kind with
      | Grid _ | Graph _ ->
          invalid_arg
            ("World_registry: " ^ name ^ " is a graph world, not a tree")
      | Tree build -> (
          match Param.validate ~schema:e.params params with
          | Error msg ->
              invalid_arg (Printf.sprintf "World_registry: %s: %s" name msg)
          | Ok () ->
              let rng = match rng with Some r -> r | None -> Rng.create 0 in
              build { rng; params }))

let build_graph ?rng ?(params = []) name =
  match find name with
  | None -> invalid_arg ("World_registry: unknown world " ^ name)
  | Some e -> (
      match e.kind with
      | Tree _ ->
          invalid_arg
            ("World_registry: " ^ name ^ " is a tree world, not a graph")
      | Grid build -> (
          match Param.validate ~schema:e.params params with
          | Error msg ->
              invalid_arg (Printf.sprintf "World_registry: %s: %s" name msg)
          | Ok () ->
              let rng = match rng with Some r -> r | None -> Rng.create 0 in
              let grid = build { rng; params } in
              (Bfdn_graphs.Grid.graph grid, Bfdn_graphs.Grid.origin grid))
      | Graph build -> (
          match Param.validate ~schema:e.params params with
          | Error msg ->
              invalid_arg (Printf.sprintf "World_registry: %s: %s" name msg)
          | Ok () ->
              let rng = match rng with Some r -> r | None -> Rng.create 0 in
              build { rng; params }))

let scale_of_params params =
  Param.get_string ~schema:tree_params params "scale"

(* Seed-independence of the hidden world: true only for eagerly built
   tree families whose generator ignores its rng, i.e. exactly the specs
   where every seed of a batch would rebuild the identical tree. *)
let deterministic_tree ?(params = []) name =
  match find name with
  | Some { kind = Tree _; _ } ->
      Tree_gen.deterministic_family name && scale_of_params params = "eager"
  | _ -> false

let lazy_capacity ?(params = []) name =
  Bfdn_sim.Lazy_world.instance_capacity ~family:name
    ~n:(Param.get_int ~schema:tree_params params "n")
    ~depth_hint:(Param.get_int ~schema:tree_params params "depth_hint")

let build_lazy ?(seed = 0) ?(params = []) name =
  match find name with
  | None -> invalid_arg ("World_registry: unknown world " ^ name)
  | Some e -> (
      match Param.validate ~schema:e.params params with
      | Error msg ->
          invalid_arg (Printf.sprintf "World_registry: %s: %s" name msg)
      | Ok () ->
          let n = Param.get_int ~schema:tree_params params "n" in
          let depth_hint =
            Param.get_int ~schema:tree_params params "depth_hint"
          in
          Bfdn_sim.Lazy_world.make ~family:name ~n ~depth_hint ~seed)

(* ---- adaptive adversary policies ---- *)

let budget_params =
  [
    {
      Param.key = "capacity";
      doc = "total node budget (ids pre-allocated at promise time)";
      default = Param.Int 3000;
    };
    {
      Param.key = "depth_budget";
      doc = "maximum tree depth the adversary may reach";
      default = Param.Int 200;
    };
  ]

let budgets params =
  ( Param.get_int ~schema:budget_params params "capacity",
    Param.get_int ~schema:budget_params params "depth_budget" )

let corridor_params =
  budget_params
  @ [
      {
        Param.key = "threshold";
        doc = "crowd size above which the corridor stops branching";
        default = Param.Int 2;
      };
    ]

let random_policy_params =
  budget_params
  @ [
      {
        Param.key = "max_children";
        doc = "children are uniform in 0..max_children per reveal";
        default = Param.Int 3;
      };
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
          Adversary.make ~capacity ~depth_budget
            (Adversary.corridor_crowds ~threshold));
    };
    {
      p_name = "bomb";
      p_doc = "spend the whole node budget at the first reveals (shallow bomb)";
      p_params = budget_params;
      p_make =
        (fun c ->
          let capacity, depth_budget = budgets c.params in
          Adversary.make ~capacity ~depth_budget Adversary.greedy_widest);
    };
    {
      p_name = "miser";
      p_doc = "one child per reveal — the tree degenerates to a path";
      p_params = budget_params;
      p_make =
        (fun c ->
          let capacity, depth_budget = budgets c.params in
          Adversary.make ~capacity ~depth_budget Adversary.miser);
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
          Adversary.make ~capacity ~depth_budget
            (Adversary.random_policy c.rng ~max_children));
    };
  ]

let find_policy name =
  List.find_opt (fun p -> String.equal p.p_name name) policies

let policy_names = List.map (fun p -> p.p_name) policies

let cli_policy_choices = List.map (fun n -> (n, n)) policy_names

let build_adversary ?rng ?(params = []) name =
  match find_policy name with
  | None -> invalid_arg ("World_registry: unknown adversary policy " ^ name)
  | Some p -> (
      match Param.validate ~schema:p.p_params params with
      | Error msg ->
          invalid_arg (Printf.sprintf "World_registry: %s: %s" name msg)
      | Ok () ->
          let rng = match rng with Some r -> r | None -> Rng.create 0 in
          p.p_make { rng; params })
