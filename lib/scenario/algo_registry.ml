module Env = Bfdn_sim.Env
module Runner = Bfdn_sim.Runner
module Exec_env = Bfdn_sim.Exec_env
module Async_env = Bfdn_sim.Async_env
module Rng = Bfdn_util.Rng
module Probe = Bfdn_obs.Probe

type caps = { tree : bool; adaptive : bool; graph : bool; async : bool }

type ctx = {
  env : Env.t;
  rng : Rng.t;
  probe : Probe.t;
  params : Param.binding list;
  fault : Bfdn_faults.Fault_plan.t option;
}

type graph_ctx = {
  g_env : Bfdn_graphs.Graph_env.t;
  g_rng : Rng.t;
  g_params : Param.binding list;
}

type async_ctx = {
  a_tree : Bfdn_trees.Tree.t;
  a_k : int;
  a_rng : Rng.t;
  a_params : Param.binding list;
  a_fault : Env.fault_hook;
}

type entry = {
  name : string;
  aliases : string list;
  doc : string;
  params : Param.spec list;
  adaptive : bool;
  make_tree : (ctx -> Runner.algo) option;
  make_graph : (graph_ctx -> Exec_env.t) option;
  make_async : (async_ctx -> Exec_env.t) option;
}

(* Capabilities are derived from the constructors that actually exist, so
   `explore list` and /registry can never drift from what instantiate
   accepts (asserted in test_scenario). [adaptive] remains a semantic
   flag — soundness against a lazily materialized adversarial world is
   not decidable from the constructor's presence. *)
let caps e =
  {
    tree = e.make_tree <> None;
    adaptive = e.adaptive && e.make_tree <> None;
    graph = e.make_graph <> None;
    async = e.make_async <> None;
  }

let tree_entry ~name ?(aliases = []) ?(adaptive = true) ~doc ?(params = [])
    make_tree =
  {
    name;
    aliases;
    doc;
    params;
    adaptive;
    make_tree = Some make_tree;
    make_graph = None;
    make_async = None;
  }

(* BFDN's anchor-selection policy, exposed as a string parameter so the
   ablation variants are expressible in a serialized spec. *)
let policy_of_string ~rng = function
  | "least-loaded" -> Bfdn.Bfdn_algo.Least_loaded
  | "first-open" -> Bfdn.Bfdn_algo.First_open
  | "random-open" -> Bfdn.Bfdn_algo.Random_open rng
  | other ->
      invalid_arg
        ("Algo_registry: unknown anchor policy " ^ other
       ^ " (expected least-loaded, first-open or random-open)")

let bfdn_params =
  [
    {
      Param.key = "policy";
      doc = "anchor policy: least-loaded, first-open or random-open";
      default = Param.String "least-loaded";
    };
    {
      Param.key = "shortcut";
      doc = "re-anchor through the LCA when a DN excursion stalls (ablation)";
      default = Param.Bool false;
    };
    {
      Param.key = "fault_tolerant";
      doc =
        "crash-tolerant variant: detect silent robots via whiteboard \
         heartbeats and release their anchors";
      default = Param.Bool false;
    };
    {
      Param.key = "suspect_after";
      doc = "rounds of heartbeat silence before a robot is presumed lost";
      default = Param.Int 4;
    };
  ]

let rec_params =
  [
    {
      Param.key = "ell";
      doc = "recursion level l of BFDN_l (Theorem 10)";
      default = Param.Int 2;
    };
  ]

let async_params =
  [
    {
      Param.key = "speed_spread";
      doc =
        "speed heterogeneity: robot speeds drawn uniformly from \
         [1/(1+spread), 1] (0 = all unit speed, synchronous-like)";
      default = Param.Float 0.0;
    };
  ]

let all =
  [
    tree_entry ~name:"bfdn"
      ~doc:
        "Breadth-First Depth-Next, Algorithm 1 — 2n/k + D^2(min(log k, log \
         d)+3) rounds (Theorem 1)"
      ~params:bfdn_params
      (fun c ->
        let schema = bfdn_params in
        let policy =
          policy_of_string ~rng:c.rng (Param.get_string ~schema c.params "policy")
        in
        let shortcut = Param.get_bool ~schema c.params "shortcut" in
        let fault_tolerant = Param.get_bool ~schema c.params "fault_tolerant" in
        let suspect_after = Param.get_int ~schema c.params "suspect_after" in
        (* The ft variant reads the scenario's fault plan only for the
           whiteboard write-drop model; crashes and masks reach it
           through the environment like any other adversity. *)
        let drop =
          match c.fault with
          | None -> None
          | Some plan ->
              Some
                (fun ~round ~robot ->
                  Bfdn_faults.Fault_plan.drops_write plan ~round ~robot)
        in
        Bfdn.Bfdn_algo.algo
          (Bfdn.Bfdn_algo.make ~policy ~shortcut ~fault_tolerant ~suspect_after
             ?drop ~probe:c.probe c.env));
    tree_entry ~name:"bfdn-wr" ~aliases:[ "bfdn-planner" ]
      ~doc:
        "BFDN in the write-read/restricted-memory model, Algorithm 2 — \
         root-planner plus per-node whiteboards (Proposition 6)"
      (fun c -> Bfdn.Bfdn_planner.algo (Bfdn.Bfdn_planner.make c.env));
    tree_entry ~name:"bfdn-rec"
      ~doc:
        "recursive BFDN_l — divide-depth composition, 4n/k^(1/l) + \
         O(D^(1+1/l)) rounds (Theorem 10)"
      ~params:rec_params
      (fun c ->
        let ell = Param.get_int ~schema:rec_params c.params "ell" in
        Bfdn.Bfdn_rec.algo (Bfdn.Bfdn_rec.make ~ell c.env));
    tree_entry ~name:"cte"
      ~doc:
        "Collective Tree Exploration of Fraigniaud et al. [10] — O(n/log k + \
         D) rounds, proportional branch splitting"
      (fun c -> Bfdn_baselines.Cte.make c.env);
    tree_entry ~name:"cte-writeread"
      ~doc:
        "CTE with whiteboard-only communication — completion marks propagate \
         only as fast as robots carry them"
      (fun c -> Bfdn_baselines.Cte_writeread.make c.env);
    tree_entry ~name:"dfs"
      ~doc:"single-robot depth-first search — the 2(n-1) baseline"
      (fun c -> Bfdn_baselines.Dfs_single.make c.env);
    tree_entry ~name:"offline" ~adaptive:false
      ~doc:
        "offline Euler-tour split — 2(n/k + D) rounds with full knowledge of \
         the tree"
      (* Reads the hidden tree up front (oracle), so it is meaningless
         against a lazily materialized adversarial world. *)
      (fun c -> Bfdn_baselines.Offline_split.make c.env);
    tree_entry ~name:"random-walk"
      ~doc:"independent uniform random walks — naive randomized baseline"
      (fun c -> Bfdn_baselines.Random_walk.make ~rng:c.rng c.env);
    {
      name = "bfdn-graph";
      aliases = [];
      doc =
        "BFDN on non-tree graphs with a distance oracle (Proposition 9) — \
         non-BFS-tree edges are closed on first traversal, BFDN runs on the \
         rest";
      params = [];
      adaptive = false;
      make_tree = None;
      make_graph =
        Some
          (fun c -> Bfdn.Bfdn_graph.exec_env (Bfdn.Bfdn_graph.make c.g_env));
      make_async = None;
    };
    {
      name = "bfdn-async";
      aliases = [];
      doc =
        "BFDN under the continuous-time relaxation (Remark 8) — event-driven \
         on Bfdn_sim.Async_env, stepped in unit-time horizons";
      params = async_params;
      adaptive = false;
      make_tree = None;
      make_graph = None;
      make_async =
        Some
          (fun c ->
            let spread =
              Param.get_float ~schema:async_params c.a_params "speed_spread"
            in
            if spread < 0.0 then
              invalid_arg "Algo_registry: speed_spread must be >= 0";
            let speeds =
              if spread = 0.0 then None
              else
                Some
                  (Array.init c.a_k (fun _ ->
                       1.0 /. (1.0 +. Rng.float c.a_rng spread)))
            in
            let aenv = Async_env.create ?speeds c.a_tree ~k:c.a_k in
            let t = Bfdn.Bfdn_async.make aenv in
            Exec_env.of_async ~fault:c.a_fault
              ~on_restart:(Bfdn.Bfdn_async.notify_restart t)
              (Bfdn.Bfdn_async.decide t) aenv);
    };
  ]

let () =
  (* Canonical names and aliases must never collide, and every entry
     must construct on at least one environment. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if e.make_tree = None && e.make_graph = None && e.make_async = None then
        invalid_arg ("Algo_registry: " ^ e.name ^ " has no constructor");
      List.iter
        (fun n ->
          if Hashtbl.mem seen n then
            invalid_arg ("Algo_registry: duplicate name " ^ n);
          Hashtbl.add seen n ())
        (e.name :: e.aliases))
    all

let find name =
  List.find_opt
    (fun e -> String.equal e.name name || List.mem name e.aliases)
    all

let names = List.map (fun e -> e.name) all

let tree_names =
  List.filter_map (fun e -> if (caps e).tree then Some e.name else None) all

let adaptive_names =
  List.filter_map (fun e -> if (caps e).adaptive then Some e.name else None) all

let graph_names =
  List.filter_map (fun e -> if (caps e).graph then Some e.name else None) all

let async_names =
  List.filter_map (fun e -> if (caps e).async then Some e.name else None) all

let choices_of filter =
  List.concat_map
    (fun e ->
      if filter e then List.map (fun n -> (n, e.name)) (e.name :: e.aliases)
      else [])
    all

let cli_choices = choices_of (fun e -> (caps e).tree)
let adaptive_cli_choices = choices_of (fun e -> (caps e).adaptive)

let checked_params e params =
  match Param.validate ~schema:e.params params with
  | Error msg -> invalid_arg (Printf.sprintf "Algo_registry: %s: %s" e.name msg)
  | Ok () -> ()

let resolve name =
  match find name with
  | None -> invalid_arg ("Algo_registry: unknown algorithm " ^ name)
  | Some e -> e

let default_rng rng = match rng with Some r -> r | None -> Rng.create 0

let instantiate ?(probe = Probe.noop) ?rng ?(params = []) ?fault name env =
  let e = resolve name in
  match e.make_tree with
  | None ->
      invalid_arg
        ("Algo_registry: " ^ name
       ^ " does not run on the synchronous tree environment")
  | Some make ->
      checked_params e params;
      make { env; rng = default_rng rng; probe; params; fault }

let instantiate_graph ?rng ?(params = []) name g_env =
  let e = resolve name in
  match e.make_graph with
  | None ->
      invalid_arg
        ("Algo_registry: " ^ name ^ " does not run on the graph environment")
  | Some make ->
      checked_params e params;
      make { g_env; g_rng = default_rng rng; g_params = params }

let instantiate_async ?rng ?(params = []) ?(fault = Env.fault_noop) name tree
    ~k =
  let e = resolve name in
  match e.make_async with
  | None ->
      invalid_arg
        ("Algo_registry: " ^ name
       ^ " does not run on the continuous-time environment")
  | Some make ->
      checked_params e params;
      make
        {
          a_tree = tree;
          a_k = k;
          a_rng = default_rng rng;
          a_params = params;
          a_fault = fault;
        }
