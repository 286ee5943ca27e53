(* Tests for the declarative scenario layer: registry coverage (every
   registered algorithm reachable from the CLI enums — the drift the
   registries were built to kill), the JSON codec (decode ∘ encode = id,
   by qcheck property over valid specs), and execution equivalence — the
   single Scenario.run dispatch path must reproduce, bit for bit, the
   Runner.result of the hand-built wiring it replaced, across the 42
   golden configs of test_golden.ml and through a save/load round trip. *)

module Param = Bfdn_scenario.Param
module Algo_registry = Bfdn_scenario.Algo_registry
module World_registry = Bfdn_scenario.World_registry
module Scenario = Bfdn_scenario.Scenario
module Tree_gen = Bfdn_trees.Tree_gen
module Env = Bfdn_sim.Env
module Runner = Bfdn_sim.Runner
module Bfdn_algo = Bfdn.Bfdn_algo
module Rng = Bfdn_util.Rng

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let check_sl = Alcotest.(check (list string))

(* ---- registry coverage: nothing registered can be CLI-unreachable ---- *)

let test_worlds_cover_tree_gen () =
  check_sl "tree worlds = Tree_gen.families" Tree_gen.families
    World_registry.tree_names

let test_algos_reachable_from_cli () =
  List.iter
    (fun name ->
      checkb (name ^ " in --algo enum") true
        (List.mem (name, name) Algo_registry.cli_choices))
    Algo_registry.tree_names;
  (* the adversary subcommand's enum is exactly the adaptive-capable
     subset — the bfdn|cte-only drift this replaces *)
  List.iter
    (fun name ->
      let e = Option.get (Algo_registry.find name) in
      checkb
        (name ^ " in adversary enum iff adaptive")
        (Algo_registry.caps e).Algo_registry.adaptive
        (List.mem_assoc name Algo_registry.adaptive_cli_choices))
    Algo_registry.tree_names;
  (* aliases resolve to their canonical entry and appear in the enum *)
  List.iter
    (fun (e : Algo_registry.entry) ->
      List.iter
        (fun alias ->
          checkb (alias ^ " alias resolves") true
            (match Algo_registry.find alias with
            | Some e' -> e' == e
            | None -> false);
          if (Algo_registry.caps e).Algo_registry.tree then
            checkb (alias ^ " alias in enum") true
              (List.mem (alias, e.name) Algo_registry.cli_choices))
        e.aliases)
    Algo_registry.all

let test_caps_match_constructors () =
  (* The capability matrix is derived, so a listed capability without a
     constructor (or vice versa) is impossible by construction — this
     pins the derivation itself, plus the name lists built from it. *)
  List.iter
    (fun (e : Algo_registry.entry) ->
      let c = Algo_registry.caps e in
      checkb (e.name ^ " tree cap = constructor") c.Algo_registry.tree
        (e.make_tree <> None);
      checkb (e.name ^ " graph cap = constructor") c.Algo_registry.graph
        (e.make_graph <> None);
      checkb (e.name ^ " async cap = constructor") c.Algo_registry.async
        (e.make_async <> None);
      if c.Algo_registry.adaptive then
        checkb (e.name ^ " adaptive implies tree") true c.Algo_registry.tree;
      checkb (e.name ^ " has a constructor") true
        (c.Algo_registry.tree || c.Algo_registry.graph || c.Algo_registry.async);
      checkb (e.name ^ " in graph_names iff graph-capable")
        c.Algo_registry.graph
        (List.mem e.name Algo_registry.graph_names);
      checkb (e.name ^ " in async_names iff async-capable")
        c.Algo_registry.async
        (List.mem e.name Algo_registry.async_names))
    Algo_registry.all;
  checkb "a graph algorithm is registered" true
    (Algo_registry.graph_names <> []);
  checkb "an async algorithm is registered" true
    (Algo_registry.async_names <> []);
  checkb "a graph world is registered" true (World_registry.graph_names <> [])

let test_every_world_builds_and_explores () =
  (* Tiny end-to-end run of every tree world through the one dispatch
     path, so a registered world can't silently be unrunnable. *)
  List.iter
    (fun world ->
      let spec =
        Scenario.make ~k:4 ~seed:7
          (Scenario.world
             ~params:[ ("depth_hint", Param.Int 6); ("n", Param.Int 80) ]
             world)
      in
      let o = Scenario.run spec in
      checkb (world ^ " explored") true o.Scenario.result.explored)
    World_registry.tree_names

let test_every_policy_runs () =
  List.iter
    (fun policy ->
      let spec =
        Scenario.make ~k:4 ~seed:7
          (Scenario.adversarial ~policy ~capacity:120 ~depth_budget:30)
      in
      let o = Scenario.run spec in
      checkb (policy ^ " explored") true o.Scenario.result.explored;
      checkb (policy ^ " has replay") true (o.Scenario.replay_rounds <> None))
    World_registry.policy_names

(* ---- validation ---- *)

let expect_error what spec =
  match Scenario.validate spec with
  | Ok () -> Alcotest.failf "%s: expected a validation error" what
  | Error msg -> checkb (what ^ " error mentions cause") true (msg <> "")

let test_validate_rejects () =
  expect_error "unknown algorithm"
    (Scenario.make ~algo:"no-such-algo" (Scenario.world "comb"));
  expect_error "unknown world"
    (Scenario.make (Scenario.world "no-such-world"));
  expect_error "unknown policy"
    (Scenario.make
       (Scenario.adversarial ~policy:"nope" ~capacity:10 ~depth_budget:5));
  (* capability mismatches *)
  expect_error "graph algo on tree scenario"
    (Scenario.make ~algo:"bfdn-graph" (Scenario.world "comb"));
  expect_error "grid world in a tree scenario"
    (Scenario.make (Scenario.world "grid"));
  expect_error "oracle-reading algo vs adaptive adversary"
    (Scenario.make ~algo:"offline"
       (Scenario.adversarial ~policy:"miser" ~capacity:10 ~depth_budget:5));
  (* parameter schema *)
  expect_error "unknown algo param"
    (Scenario.make ~algo_params:[ ("nope", Param.Int 1) ]
       (Scenario.world "comb"));
  expect_error "wrong param type"
    (Scenario.make
       (Scenario.world ~params:[ ("n", Param.String "many") ] "comb"));
  expect_error "k < 1" (Scenario.make ~k:0 (Scenario.world "comb"));
  (* k sizes per-robot arrays before the first round *)
  expect_error "k = 2^20 + 1"
    (Scenario.make ~k:((1 lsl 20) + 1) (Scenario.world "comb"));
  expect_error "k = 10^11"
    (Scenario.make ~k:100_000_000_000 (Scenario.world "comb"));
  checkb "k = 2^20 accepted" true
    (Scenario.validate (Scenario.make ~k:(1 lsl 20) (Scenario.world "comb"))
    = Ok ());
  expect_error "max_rounds < 1"
    (Scenario.make ~max_rounds:0 (Scenario.world "comb"));
  (* adversary budgets: they size the node store *)
  expect_error "adversary capacity 0"
    (Scenario.make
       (Scenario.adversarial ~policy:"miser" ~capacity:0 ~depth_budget:5));
  expect_error "adversary depth_budget -1"
    (Scenario.make
       (Scenario.adversarial ~policy:"miser" ~capacity:10 ~depth_budget:(-1)));
  expect_error "adversary capacity 2^62-1"
    (Scenario.make
       (Scenario.adversarial ~policy:"miser" ~capacity:max_int ~depth_budget:5));
  expect_error "random adversary max_children -1"
    (Scenario.make
       (Scenario.Adversarial
          { policy = "random"; params = [ ("max_children", Param.Int (-1)) ] }));
  (* but the adaptive subset does accept every adaptive algorithm *)
  List.iter
    (fun algo ->
      checkb (algo ^ " accepted vs adversary") true
        (Scenario.validate
           (Scenario.make ~algo
              (Scenario.adversarial ~policy:"miser" ~capacity:10
                 ~depth_budget:5))
        = Ok ()))
    Algo_registry.adaptive_names

(* ---- JSON codec ---- *)

let test_json_shape_and_defaults () =
  let spec =
    Scenario.make ~algo:"bfdn-rec"
      ~algo_params:[ ("ell", Param.Int 3) ]
      ~k:9 ~seed:3 ~max_rounds:77
      (Scenario.generated ~family:"comb" ~n:500 ~depth_hint:12)
  in
  checks "stable wire format"
    {|{"schema_version":1,"world":{"name":"comb","params":{"depth_hint":12,"n":500}},"algo":{"name":"bfdn-rec","params":{"ell":3}},"k":9,"seed":3,"max_rounds":77,"metrics":false}|}
    (Scenario.to_string spec);
  (* member order is irrelevant and optional fields default *)
  match
    Scenario.of_string
      {| {"seed":3, "k":9, "algo":{"name":"bfdn-rec","params":{"ell":3}},
          "world":{"name":"comb","params":{"n":500,"depth_hint":12}},
          "schema_version":1} |}
  with
  | Error e -> Alcotest.fail e
  | Ok t ->
      checkb "decoded to the same spec (modulo optionals)" true
        (Scenario.equal t { spec with max_rounds = None })

let test_json_rejects () =
  List.iter
    (fun (what, s) ->
      checkb what true (Result.is_error (Scenario.of_string s)))
    [
      ("not json", "{nope");
      ("missing instance", {|{"schema_version":1,"algo":{"name":"bfdn"},"k":1,"seed":0}|});
      ( "both instances",
        {|{"schema_version":1,"world":{"name":"comb"},"adversary":{"name":"miser"},"algo":{"name":"bfdn"},"k":1,"seed":0}|}
      );
      ( "bad version",
        {|{"schema_version":99,"world":{"name":"comb"},"algo":{"name":"bfdn"},"k":1,"seed":0}|}
      );
      ( "unknown algorithm",
        {|{"schema_version":1,"world":{"name":"comb"},"algo":{"name":"zap"},"k":1,"seed":0}|}
      );
      ( "non-int k",
        {|{"schema_version":1,"world":{"name":"comb"},"algo":{"name":"bfdn"},"k":"many","seed":0}|}
      );
    ]

(* qcheck: decode ∘ encode = id over randomly generated valid specs,
   including adversarial instances, parameter bindings of every type and
   the optional fields. *)
let spec_gen =
  let open QCheck2.Gen in
  let value_for ?world (s : Param.spec) =
    (* "scale" is value-checked by validate (and "lazy" only on the
       families with lazy support), so draw from the legal set. *)
    if s.key = "scale" then
      let choices =
        "eager"
        ::
        (match world with
        | Some w when Bfdn_sim.Lazy_world.supported w -> [ "lazy" ]
        | _ -> [])
      in
      map (fun s -> Param.String s) (oneofl choices)
    else if List.mem s.key [ "capacity"; "depth_budget"; "max_children" ]
    then
      (* adversary budgets are range-checked by validate as well *)
      let lo = if s.key = "capacity" then 1 else 0 in
      map (fun i -> Param.Int i) (int_range lo 1000)
    else
      match s.default with
      | Param.Int _ -> map (fun i -> Param.Int i) (int_range (-1000) 1000)
      | Param.Float _ ->
          map (fun f -> Param.Float f) (float_range (-1e6) 1e6)
      | Param.Bool _ -> map (fun b -> Param.Bool b) bool
      | Param.String _ ->
          map (fun s -> Param.String s) (string_size ~gen:printable (0 -- 8))
  in
  let bindings_for ?world schema =
    (* each key independently present or defaulted *)
    let rec go = function
      | [] -> return []
      | (s : Param.spec) :: rest ->
          bool >>= fun keep ->
          go rest >>= fun tl ->
          if keep then value_for ?world s >>= fun v -> return ((s.key, v) :: tl)
          else return tl
    in
    go schema
  in
  bool >>= fun adversarial ->
  (if adversarial then
     oneofl World_registry.policies >>= fun (p : World_registry.policy_entry) ->
     bindings_for p.p_params >>= fun params ->
     return (Scenario.Adversarial { policy = p.p_name; params })
   else
     oneofl World_registry.tree_names >>= fun world ->
     let entry = Option.get (World_registry.find world) in
     bindings_for ~world entry.params >>= fun params ->
     return (Scenario.World { world; params }))
  >>= fun instance ->
  oneofl
    (if adversarial then Algo_registry.adaptive_names
     else Algo_registry.tree_names)
  >>= fun algo ->
  bindings_for (Option.get (Algo_registry.find algo)).params
  >>= fun algo_params ->
  int_range 1 512 >>= fun k ->
  int_range (-100000) 100000 >>= fun seed ->
  opt (int_range 1 100000) >>= fun max_rounds ->
  bool >>= fun metrics ->
  return
    (Scenario.make ~algo ~algo_params ~k ~seed ?max_rounds ~metrics instance)

let prop_json_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"scenario json round-trip"
    ~print:Scenario.to_string spec_gen (fun spec ->
      match Scenario.of_string (Scenario.to_string spec) with
      | Ok spec' -> Scenario.equal spec spec'
      | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e)

(* Graph/grid specs: same codec property over the version-2 vocabulary,
   plus the version pin — a graph world (or async-only algorithm) must
   be emitted as schema_version 2, never retroactively upgrade a plain
   tree spec. *)
let graph_spec_gen =
  let open QCheck2.Gen in
  let int_param = map (fun i -> Param.Int i) (int_range 1 64) in
  bool >>= fun async ->
  (if async then
     oneofl World_registry.tree_names >>= fun world ->
     oneofl Algo_registry.async_names >>= fun algo ->
     float_range 0.0 2.0 >>= fun spread ->
     return
       ( Scenario.World { world; params = [] },
         algo,
         [ ("speed_spread", Param.Float spread) ] )
   else
     oneofl World_registry.graph_names >>= fun world ->
     let entry = Option.get (World_registry.find world) in
     let rec go = function
       | [] -> return []
       | (s : Param.spec) :: rest ->
           bool >>= fun keep ->
           go rest >>= fun tl ->
           if keep then int_param >>= fun v -> return ((s.Param.key, v) :: tl)
           else return tl
     in
     go entry.params >>= fun params ->
     oneofl Algo_registry.graph_names >>= fun algo ->
     return (Scenario.World { world; params }, algo, []))
  >>= fun (instance, algo, algo_params) ->
  int_range 1 64 >>= fun k ->
  int_range 0 100000 >>= fun seed ->
  return (Scenario.make ~algo ~algo_params ~k ~seed instance)

let prop_graph_json_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"graph/async spec json round-trip"
    ~print:Scenario.to_string graph_spec_gen (fun spec ->
      let wire = Scenario.to_string spec in
      if
        not
          (String.length wire > 20
          && String.sub wire 0 20 = {|{"schema_version":2,|})
      then QCheck2.Test.fail_reportf "not emitted as version 2: %s" wire;
      match Scenario.of_string wire with
      | Ok spec' -> Scenario.equal spec spec'
      | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e)

(* ---- execution equivalence ----

   Scenario.run must reproduce the exact Runner.result of the hand-built
   wiring it replaced. The 42 configs are those of test_golden.ml: the 7
   golden families × 3 anchor policies × shortcut ∈ {false, true}, at
   k = 9, n = 500, depth_hint = 12, with the engine's historical stream
   derivation (split 0 = tree, split 1 = algorithm). *)

let result_t =
  Alcotest.testable Runner.pp_result (fun (a : Runner.result) b -> a = b)

let golden_families =
  [ "comb"; "binary"; "random"; "trap"; "caterpillar"; "spider"; "hidden-path" ]

let policies = [ "least-loaded"; "first-open"; "random-open" ]

let hand_wired ~family ~policy ~shortcut ~seed =
  let root = Rng.create seed in
  let tree =
    Tree_gen.of_family family ~rng:(Rng.split root 0) ~n:500 ~depth_hint:12
  in
  let env = Env.create tree ~k:9 in
  let pol =
    match policy with
    | "least-loaded" -> Bfdn_algo.Least_loaded
    | "first-open" -> Bfdn_algo.First_open
    | _ -> Bfdn_algo.Random_open (Rng.split root 1)
  in
  let t = Bfdn_algo.make ~policy:pol ~shortcut env in
  Runner.run (Bfdn_algo.algo t) env

let test_golden_equivalence () =
  let idx = ref 0 in
  List.iter
    (fun family ->
      List.iter
        (fun policy ->
          List.iter
            (fun shortcut ->
              let seed = 1000 + !idx in
              incr idx;
              let spec =
                Scenario.make ~algo:"bfdn"
                  ~algo_params:
                    [
                      ("policy", Param.String policy);
                      ("shortcut", Param.Bool shortcut);
                    ]
                  ~k:9 ~seed
                  (Scenario.generated ~family ~n:500 ~depth_hint:12)
              in
              Alcotest.check result_t
                (Printf.sprintf "%s/%s/shortcut=%b" family policy shortcut)
                (hand_wired ~family ~policy ~shortcut ~seed)
                (Scenario.run spec).Scenario.result)
            [ false; true ])
        policies)
    golden_families;
  Alcotest.(check int) "all 42 golden configs covered" 42 !idx

let test_job_run_is_scenario_run () =
  (* a job run by the engine's batch path is Scenario.run, generated
     and adversarial alike *)
  let jobs =
    [
      Scenario.make ~algo:"cte" ~k:7 ~seed:11
        (Scenario.generated ~family:"trap" ~n:300 ~depth_hint:10);
      Scenario.make ~algo:"random-walk" ~k:3 ~seed:5
        (Scenario.generated ~family:"star" ~n:60 ~depth_hint:2);
      Scenario.make ~algo:"bfdn" ~k:6 ~seed:2
        (Scenario.adversarial ~policy:"thick-comb" ~capacity:150
           ~depth_budget:40);
    ]
  in
  List.iter
    (fun (job, res) ->
      checkb (Scenario.describe job) true
        (match res with
        | Ok o -> Scenario.equal_outcome o (Scenario.run job)
        | Error _ -> false))
    (Bfdn_engine.Batch.run ~workers:1 jobs)

let test_save_load_reexecute () =
  let path = Filename.temp_file "scenario" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let spec =
        Scenario.make ~algo:"bfdn-rec"
          ~algo_params:[ ("ell", Param.Int 2) ]
          ~k:5 ~seed:33
          (Scenario.adversarial ~policy:"corridor" ~capacity:200
             ~depth_budget:50)
      in
      Scenario.save ~path spec;
      match Scenario.load path with
      | Error e -> Alcotest.fail e
      | Ok spec' ->
          checkb "spec survives the disk round trip" true
            (Scenario.equal spec spec');
          checkb "re-executed outcome is identical" true
            (Scenario.equal_outcome (Scenario.run spec) (Scenario.run spec')))

let test_run_on_tree_matches_run () =
  (* materialize + run_on_tree is the --tree-file replay path; on the
     spec's own tree it must equal Scenario.run exactly. *)
  let spec =
    Scenario.make ~algo:"bfdn" ~k:6 ~seed:9
      (Scenario.generated ~family:"random-deep" ~n:250 ~depth_hint:30)
  in
  checkb "replay on the materialized tree is identical" true
    (Scenario.equal_outcome (Scenario.run spec)
       (Scenario.run_on_tree spec (Scenario.materialize spec)))

let test_lazy_scale_runs () =
  (* scale=lazy dispatches the world through Lazy_world: every supported
     family must validate, fully explore, and survive materialize (the
     --tree-file path for lazy specs). *)
  List.iter
    (fun world ->
      let spec =
        Scenario.make ~k:4 ~seed:7
          (Scenario.world
             ~params:
               [
                 ("depth_hint", Param.Int 6); ("n", Param.Int 80);
                 ("scale", Param.String "lazy");
               ]
             world)
      in
      (match Scenario.validate spec with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s scale=lazy rejected: %s" world e);
      let o = Scenario.run spec in
      checkb (world ^ " lazy explored") true o.Scenario.result.explored;
      let t = Scenario.materialize spec in
      checkb (world ^ " lazy materializes") true (Bfdn_trees.Tree.n t > 1))
    (List.filter Bfdn_sim.Lazy_world.supported World_registry.tree_names)

let test_lazy_scale_rejects_unsupported () =
  let spec =
    Scenario.make ~k:4 ~seed:7
      (Scenario.world
         ~params:[ ("scale", Param.String "lazy") ]
         "hidden-path")
  in
  (match Scenario.validate spec with
  | Ok () -> Alcotest.fail "hidden-path scale=lazy must be rejected"
  | Error _ -> ());
  let bad =
    Scenario.make ~k:4 ~seed:7
      (Scenario.world ~params:[ ("scale", Param.String "huge") ] "binary")
  in
  match Scenario.validate bad with
  | Ok () -> Alcotest.fail "unknown scale value must be rejected"
  | Error _ -> ()

(* ---- graph and async worlds through the one executor ---- *)

let grid_spec ?(faults = []) ?(k = 5) ?(seed = 13) () =
  Scenario.make ~algo:"bfdn-graph" ~k ~seed ~faults
    (Scenario.world
       ~params:
         [
           ("height", Param.Int 7); ("obstacles", Param.Int 3);
           ("width", Param.Int 9);
         ]
       "grid")

let test_every_graph_world_explores () =
  (* Mirror of test_every_world_builds_and_explores for the graph
     vocabulary: a registered graph world must run end to end through
     Scenario.run with a graph-capable algorithm. *)
  List.iter
    (fun world ->
      let spec = Scenario.make ~algo:"bfdn-graph" ~k:4 ~seed:7
          (Scenario.world world)
      in
      let o = Scenario.run spec in
      checkb (world ^ " explored") true o.Scenario.result.explored;
      checkb (world ^ " back at origin") true o.Scenario.result.at_root)
    World_registry.graph_names

let test_async_spec_runs () =
  let spec =
    Scenario.make ~algo:"bfdn-async"
      ~algo_params:[ ("speed_spread", Param.Float 0.5) ]
      ~k:6 ~seed:11
      (Scenario.generated ~family:"comb" ~n:200 ~depth_hint:8)
  in
  let o = Scenario.run spec in
  checkb "async explored" true o.Scenario.result.explored;
  checkb "async at root" true o.Scenario.result.at_root;
  checkb "async outcome deterministic" true
    (Scenario.equal_outcome o (Scenario.run spec));
  (* run_on_tree drives the async path on the spec's own tree *)
  checkb "async run_on_tree matches run" true
    (Scenario.equal_outcome o
       (Scenario.run_on_tree spec (Scenario.materialize spec)))

let test_graph_batch_determinism () =
  (* the 1-vs-N oracle now covers graph and async specs: engine jobs are
     scenarios, so a grid sweep shards across workers bit-for-bit *)
  let module Batch = Bfdn_engine.Batch in
  let jobs =
    [
      grid_spec ();
      grid_spec ~k:9 ~seed:40 ();
      Scenario.make ~algo:"bfdn-graph" ~k:6 ~seed:3
        (Scenario.world ~params:[ ("n", Param.Int 200) ] "random-graph");
      Scenario.make ~algo:"bfdn-async" ~k:4 ~seed:8
        (Scenario.generated ~family:"random"~n:150 ~depth_hint:10);
    ]
  in
  let seq = Batch.run ~workers:1 jobs in
  let par = Batch.run ~workers:3 jobs in
  List.iter2
    (fun (job, a) (_, b) ->
      match (a, b) with
      | Ok x, Ok y ->
          checkb
            (Printf.sprintf "1 vs 3 workers: %s" (Scenario.describe job))
            true (Scenario.equal_outcome x y)
      | _ -> Alcotest.fail (Scenario.describe job ^ ": job failed"))
    seq par

let test_grid_fault_sweep () =
  (* the E17-style fault machinery applies to grid worlds: crashed
     robots freeze, restarts teleport to the origin, and the run still
     covers the graph (the graph variant self-heals by re-anchoring). *)
  let faulty =
    grid_spec
      ~faults:[ ("rate", Param.Float 0.1); ("restart", Param.Int 12) ]
      ()
  in
  let clean = grid_spec () in
  let of_ = Scenario.run faulty and oc = Scenario.run clean in
  checkb "faulty grid run explored" true of_.Scenario.result.explored;
  checkb "faulty grid run returns home" true of_.Scenario.result.at_root;
  checkb "faults perturb the schedule" true
    (of_.Scenario.result <> oc.Scenario.result);
  checkb "fault schedule replays identically" true
    (Scenario.equal_outcome of_ (Scenario.run faulty))

let test_materialize_rejects_graph_worlds () =
  match Scenario.materialize (grid_spec ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "materialize must reject graph worlds"

let test_validate_rejects_kind_mismatch () =
  (* tree algorithm on a graph world and graph algorithm on a tree world
     are both caught by validate, not at execution *)
  let bad1 =
    Scenario.make ~algo:"bfdn" ~k:4 ~seed:1 (Scenario.world "grid")
  in
  let bad2 =
    Scenario.make ~algo:"bfdn-graph" ~k:4 ~seed:1 (Scenario.world "comb")
  in
  let bad3 =
    Scenario.make ~algo:"bfdn-graph" ~k:4 ~seed:1
      (Scenario.adversarial ~policy:"miser" ~capacity:100 ~depth_budget:30)
  in
  List.iter
    (fun (what, s) ->
      checkb what true (Result.is_error (Scenario.validate s)))
    [
      ("tree algo on grid", bad1);
      ("graph algo on tree", bad2);
      ("graph algo on adversary", bad3);
    ]

let test_probe_does_not_change_outcome () =
  let spec =
    Scenario.make ~algo:"bfdn" ~k:8 ~seed:4
      (Scenario.generated ~family:"comb" ~n:300 ~depth_hint:15)
  in
  let m = Bfdn_obs.Metrics.create () in
  checkb "metrics probe preserves the outcome" true
    (Scenario.equal_outcome (Scenario.run spec)
       (Scenario.run ~probe:(Bfdn_obs.Probe.of_metrics m) spec))

(* Lazy worlds keep node ids in int32 node-store columns: a spec whose
   instance exceeds the id range is a validation error, not a wrapped id
   or an exception inside the run. *)
let test_lazy_scale_rejects_oversize () =
  let lazy_spec ?max_rounds world n =
    Scenario.make ~k:4 ~seed:7 ?max_rounds
      (Scenario.world
         ~params:
           [
             ("depth_hint", Param.Int 20); ("n", Param.Int n);
             ("scale", Param.String "lazy");
           ]
         world)
  in
  let limit = Bfdn_sim.Node_store.max_ids in
  let huge = lazy_spec ~max_rounds:5 "binary" 100_000_000_000 in
  (match Scenario.validate huge with
  | Ok () -> Alcotest.fail "binary n=10^11 scale=lazy must be rejected"
  | Error msg ->
      let needle = string_of_int limit in
      let n = String.length needle in
      checkb "the error names the id range" true
        (List.exists
           (fun i -> String.sub msg i n = needle)
           (List.init (String.length msg - n + 1) Fun.id)));
  (match Scenario.run huge with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "run must refuse an invalid spec");
  checkb "random n = limit validates" true
    (Scenario.validate (lazy_spec "random" limit) = Ok ());
  checkb "random n = limit + 1 is rejected" true
    (Result.is_error (Scenario.validate (lazy_spec "random" (limit + 1))));
  checkb "eager scale is not id-limited here" true
    (Scenario.validate
       (Scenario.make ~k:4 ~seed:7
          (Scenario.generated ~family:"random" ~n:(limit + 1) ~depth_hint:20))
    = Ok ())

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "scenario",
    [
      tc "worlds cover Tree_gen" test_worlds_cover_tree_gen;
      tc "algorithms reachable from CLI" test_algos_reachable_from_cli;
      tc "caps match constructors" test_caps_match_constructors;
      tc "every world builds and explores" test_every_world_builds_and_explores;
      tc "every policy runs" test_every_policy_runs;
      tc "validate rejects" test_validate_rejects;
      tc "json wire format" test_json_shape_and_defaults;
      tc "json rejects" test_json_rejects;
      QCheck_alcotest.to_alcotest prop_json_roundtrip;
      QCheck_alcotest.to_alcotest prop_graph_json_roundtrip;
      tc "golden equivalence (42 configs)" test_golden_equivalence;
      tc "job.run = scenario.run" test_job_run_is_scenario_run;
      tc "save/load/re-execute" test_save_load_reexecute;
      tc "run_on_tree matches run" test_run_on_tree_matches_run;
      tc "lazy scale runs" test_lazy_scale_runs;
      tc "lazy scale rejects unsupported" test_lazy_scale_rejects_unsupported;
      tc "every graph world explores" test_every_graph_world_explores;
      tc "async spec runs" test_async_spec_runs;
      tc "grid fault sweep" test_grid_fault_sweep;
      tc "graph batch 1 vs N workers" test_graph_batch_determinism;
      tc "materialize rejects graph worlds" test_materialize_rejects_graph_worlds;
      tc "validate rejects kind mismatch" test_validate_rejects_kind_mismatch;
      tc "probe does not change outcome" test_probe_does_not_change_outcome;
      tc "lazy scale rejects oversize ids" test_lazy_scale_rejects_oversize;
    ] )
