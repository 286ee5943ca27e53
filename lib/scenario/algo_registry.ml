module Env = Bfdn_sim.Env
module Exec_env = Bfdn_sim.Exec_env
module Async_env = Bfdn_sim.Async_env
module Rng = Bfdn_util.Rng
module Probe = Bfdn_obs.Probe

type caps = { tree : bool; adaptive : bool; graph : bool; async : bool }

type ctx = {
  rng : Rng.t;
  probe : Probe.t;
  params : Param.binding list;
  fault : Bfdn_faults.Fault_plan.t option;
}

type make =
  | Tree of { adaptive : bool; algo : ctx -> Env.t -> Exec_env.algo }
  | Graph of (ctx -> Bfdn_graphs.Graph_env.t -> Exec_env.t)
  | Async of (ctx -> Bfdn_trees.Tree.t -> k:int -> Exec_env.t)

type entry = {
  name : string;
  aliases : string list;
  doc : string;
  params : Param.spec list;
  make : make;
}

(* Capabilities are derived from the one constructor, so `explore list`
   and /registry can never drift from what a run accepts. [adaptive]
   remains a semantic flag — soundness against a lazily materialized
   adversarial world is not decidable from the constructor itself. *)
let caps e =
  let none = { tree = false; adaptive = false; graph = false; async = false } in
  match e.make with
  | Tree { adaptive; _ } -> { none with tree = true; adaptive }
  | Graph _ -> { none with graph = true }
  | Async _ -> { none with async = true }

let tree_entry ~name ?(aliases = []) ?(adaptive = true) ~doc ?(params = [])
    algo =
  { name; aliases; doc; params; make = Tree { adaptive; algo } }

(* BFDN's anchor-selection policy, exposed as a string parameter so the
   ablation variants are expressible in a serialized spec. *)
let anchor_policies =
  [
    ("least-loaded", fun _ -> Bfdn.Bfdn_algo.Least_loaded);
    ("first-open", fun _ -> Bfdn.Bfdn_algo.First_open);
    ("random-open", fun rng -> Bfdn.Bfdn_algo.Random_open rng);
  ]

let bfdn_params =
  [
    Param.spec "policy" (Param.String "least-loaded") "anchor policy"
      ~accepts:(Param.One_of (List.map fst anchor_policies));
    Param.spec "shortcut" (Param.Bool false)
      "re-anchor through the LCA when a DN excursion stalls (ablation)";
    Param.spec "fault_tolerant" (Param.Bool false)
      "crash-tolerant variant: detect silent robots via whiteboard \
       heartbeats and release their anchors";
    Param.spec "suspect_after" (Param.Int 4)
      "rounds of heartbeat silence before a robot is presumed lost"
      ~accepts:(Param.Ints (1, max_int));
  ]

let rec_params =
  [
    Param.spec "ell" (Param.Int 2)
      "recursion level l of BFDN_l (Theorem 10); call j's budget is \
       2^(j l) rounds"
      ~accepts:(Param.Ints (1, 30));
  ]

let async_params =
  [
    Param.spec "speed_spread" (Param.Float 0.0)
      "speed heterogeneity: robot speeds drawn uniformly from \
       [1/(1+spread), 1] (0 = all unit speed, synchronous-like)"
      ~accepts:(Param.Floats (0.0, Float.max_float));
  ]

let all =
  [
    tree_entry ~name:"bfdn"
      ~doc:
        "Breadth-First Depth-Next, Algorithm 1 — 2n/k + D^2(min(log k, log \
         d)+3) rounds (Theorem 1)"
      ~params:bfdn_params
      (fun c env ->
        let schema = bfdn_params in
        let policy =
          List.assoc
            (Param.get_string ~schema c.params "policy")
            anchor_policies c.rng
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
             ?drop ~probe:c.probe env));
    tree_entry ~name:"bfdn-wr" ~aliases:[ "bfdn-planner" ]
      ~doc:
        "BFDN in the write-read/restricted-memory model, Algorithm 2 — \
         root-planner plus per-node whiteboards (Proposition 6)"
      (fun _ env -> Bfdn.Bfdn_planner.algo (Bfdn.Bfdn_planner.make env));
    tree_entry ~name:"bfdn-rec"
      ~doc:
        "recursive BFDN_l — divide-depth composition, 4n/k^(1/l) + \
         O(D^(1+1/l)) rounds (Theorem 10)"
      ~params:rec_params
      (fun c env ->
        let ell = Param.get_int ~schema:rec_params c.params "ell" in
        Bfdn.Bfdn_rec.algo (Bfdn.Bfdn_rec.make ~ell env));
    tree_entry ~name:"cte"
      ~doc:
        "Collective Tree Exploration of Fraigniaud et al. [10] — O(n/log k + \
         D) rounds, proportional branch splitting"
      (fun _ env -> Bfdn_baselines.Cte.make env);
    tree_entry ~name:"cte-writeread"
      ~doc:
        "CTE with whiteboard-only communication — completion marks propagate \
         only as fast as robots carry them"
      (fun _ env -> Bfdn_baselines.Cte_writeread.make env);
    tree_entry ~name:"dfs"
      ~doc:"single-robot depth-first search — the 2(n-1) baseline"
      (fun _ env -> Bfdn_baselines.Dfs_single.make env);
    tree_entry ~name:"offline" ~adaptive:false
      ~doc:
        "offline Euler-tour split — 2(n/k + D) rounds with full knowledge of \
         the tree"
      (* Reads the hidden tree up front (oracle), so it is meaningless
         against a lazily materialized adversarial world. *)
      (fun _ env -> Bfdn_baselines.Offline_split.make env);
    tree_entry ~name:"random-walk"
      ~doc:"independent uniform random walks — naive randomized baseline"
      (fun c env -> Bfdn_baselines.Random_walk.make ~rng:c.rng env);
    {
      name = "bfdn-graph";
      aliases = [];
      doc =
        "BFDN on non-tree graphs with a distance oracle (Proposition 9) — \
         non-BFS-tree edges are closed on first traversal, BFDN runs on the \
         rest";
      params = [];
      make =
        Graph
          (fun _ genv -> Bfdn.Bfdn_graph.exec_env (Bfdn.Bfdn_graph.make genv));
    };
    {
      name = "bfdn-async";
      aliases = [];
      doc =
        "BFDN under the continuous-time relaxation (Remark 8) — event-driven \
         on Bfdn_sim.Async_env, stepped in unit-time horizons";
      params = async_params;
      make =
        Async
          (fun c tree ~k ->
            let spread =
              Param.get_float ~schema:async_params c.params "speed_spread"
            in
            let speeds =
              if spread = 0.0 then None
              else
                Some
                  (Array.init k (fun _ -> 1.0 /. (1.0 +. Rng.float c.rng spread)))
            in
            let aenv = Async_env.create ?speeds tree ~k in
            let t = Bfdn.Bfdn_async.make aenv in
            Exec_env.of_async
              ~fault:(Bfdn_faults.Injector.hook_opt c.fault)
              ~on_restart:(Bfdn.Bfdn_async.notify_restart t)
              (Bfdn.Bfdn_async.decide t) aenv);
    };
  ]

let () =
  (* Canonical names and aliases must never collide. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e ->
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

let cli_choices =
  List.concat_map
    (fun e -> List.map (fun n -> (n, e.name)) (e.name :: e.aliases))
    all
