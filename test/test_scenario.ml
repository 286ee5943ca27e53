(* Tests for the declarative scenario layer: registry coverage (every
   registered algorithm reachable from the CLI enums — the drift the
   registries were built to kill), the JSON codec (decode ∘ encode = id,
   by qcheck property over valid specs), and execution equivalence — the
   single Scenario.run dispatch path must reproduce, bit for bit, the
   Exec_env.result of the hand-built wiring it replaced, across the 42
   golden configs of test_golden.ml and through a save/load round trip. *)

module Param = Bfdn_scenario.Param
module Algo_registry = Bfdn_scenario.Algo_registry
module World_registry = Bfdn_scenario.World_registry
module Scenario = Bfdn_scenario.Scenario
module Tree_gen = Bfdn_trees.Tree_gen
module Env = Bfdn_sim.Env
module Exec_env = Bfdn_sim.Exec_env
module Bfdn_algo = Bfdn.Bfdn_algo
module Rng = Bfdn_util.Rng

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)
let check_sl = Alcotest.(check (list string))

(* ---- registry coverage: nothing registered can be CLI-unreachable ---- *)

let test_worlds_cover_tree_gen () =
  check_sl "tree worlds = Tree_gen.families" Tree_gen.families
    World_registry.tree_names

let test_algos_reachable_from_cli () =
  (* every algorithm name and alias is in the one --algo enum, mapped to
     its canonical entry; Scenario.validate alone pairs it with a world *)
  List.iter
    (fun (e : Algo_registry.entry) ->
      List.iter
        (fun token ->
          checkb (token ^ " resolves") true
            (match Algo_registry.find token with
            | Some e' -> e' == e
            | None -> false);
          checkb (token ^ " in --algo enum") true
            (List.mem (token, e.name) Algo_registry.cli_choices))
        (e.name :: e.aliases))
    Algo_registry.all;
  (* every world, and every policy under its adv: label, is in the one
     --world enum, and the token maps back to the instance it labels *)
  let check_world token instance =
    checkb (token ^ " in --world enum") true
      (List.mem (token, token) World_registry.cli_choices);
    checkb (token ^ " is its instance's label") true
      (Scenario.of_label token = instance);
    checks (token ^ " round-trips") token
      (Scenario.instance_label (Scenario.make instance))
  in
  List.iter
    (fun (e : World_registry.entry) ->
      check_world e.name (Scenario.world e.name))
    World_registry.worlds;
  List.iter
    (fun policy ->
      check_world ("adv:" ^ policy)
        (Scenario.Adversarial { policy; params = [] }))
    World_registry.policy_names

let test_caps_match_constructors () =
  (* The capability matrix is derived from the entry's one constructor,
     so a listed capability without a constructor (or vice versa) is
     impossible by construction — this pins the derivation itself, plus
     the name lists built from it. *)
  List.iter
    (fun (e : Algo_registry.entry) ->
      let c = Algo_registry.caps e in
      let is_tree, is_graph, is_async =
        match e.make with
        | Algo_registry.Tree _ -> (true, false, false)
        | Algo_registry.Graph _ -> (false, true, false)
        | Algo_registry.Async _ -> (false, false, true)
      in
      checkb (e.name ^ " tree cap = constructor") c.Algo_registry.tree is_tree;
      checkb (e.name ^ " graph cap = constructor") c.Algo_registry.graph
        is_graph;
      checkb (e.name ^ " async cap = constructor") c.Algo_registry.async
        is_async;
      (match e.make with
      | Algo_registry.Tree { adaptive; _ } ->
          checkb (e.name ^ " adaptive cap = constructor flag")
            c.Algo_registry.adaptive adaptive
      | Algo_registry.Graph _ | Algo_registry.Async _ ->
          checkb (e.name ^ " adaptive implies tree") false
            c.Algo_registry.adaptive);
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
  (* a lazy world is revealed as it is explored: offline would plan on
     the root star and stop unexplored *)
  expect_error "oracle-reading algo vs lazy world"
    (Scenario.make ~algo:"offline" ~k:8
       (Scenario.world
          ~params:[ ("n", Param.Int 2000); ("scale", Param.String "lazy") ]
          "comb"));
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
  (* every value a constructor rejects is refused by validate first *)
  let world name params = Scenario.world ~params name in
  let graph name params =
    Scenario.make ~algo:"bfdn-graph" (world name params)
  in
  List.iter
    (fun (what, spec) -> expect_error what spec)
    ([
      ("grid width 0", graph "grid" [ ("width", Param.Int 0) ]);
      ("grid max_side -1", graph "grid" [ ("max_side", Param.Int (-1)) ]);
      ("random-graph n 0", graph "random-graph" [ ("n", Param.Int 0) ]);
      ( "random-graph extra_edges -1",
        graph "random-graph" [ ("extra_edges", Param.Int (-1)) ] );
      ("layered width 0", graph "layered" [ ("width", Param.Int 0) ]);
      ( "bfdn suspect_after 0",
        Scenario.make
          ~algo_params:[ ("suspect_after", Param.Int 0) ]
          (Scenario.world "comb") );
      ( "bfdn policy bogus",
        Scenario.make
          ~algo_params:[ ("policy", Param.String "bogus") ]
          (Scenario.world "comb") );
      ( "bfdn-async speed_spread -1",
        Scenario.make ~algo:"bfdn-async"
          ~algo_params:[ ("speed_spread", Param.Float (-1.0)) ]
          (Scenario.world "comb") );
      (* eager worlds are capped at 2^24 nodes *)
      ( "eager path n 4*10^8",
        Scenario.make (world "path" [ ("n", Param.Int 400_000_000) ]) );
      ( "eager star n 3*10^9",
        Scenario.make (world "star" [ ("n", Param.Int 3_000_000_000) ]) );
      ( "eager broom depth_hint 2^24 + 1",
        Scenario.make
          (world "broom" [ ("depth_hint", Param.Int ((1 lsl 24) + 1)) ]) );
      ( "grid 2^12 x (2^12 + 1)",
        graph "grid" [ ("height", Param.Int 4096); ("width", Param.Int 4097) ]
      );
      ( "random-graph n 2^24 + 1",
        graph "random-graph" [ ("n", Param.Int ((1 lsl 24) + 1)) ] );
      ( "random-graph extra_edges 2^24 + 1",
        graph "random-graph" [ ("extra_edges", Param.Int ((1 lsl 24) + 1)) ] );
      ( "layered 2^12 x (2^12 + 1)",
        graph "layered"
          [ ("layers", Param.Int 4096); ("width", Param.Int 4097) ] );
      ( "layered chords 2^24 + 1",
        graph "layered" [ ("chords", Param.Int ((1 lsl 24) + 1)) ] );
      (* tree generators clamp these, which would misname the instance *)
      ("random n -5", Scenario.make (world "random" [ ("n", Param.Int (-5)) ]));
      ("comb n 0", Scenario.make (world "comb" [ ("n", Param.Int 0) ]));
      ( "random depth_hint -7",
        Scenario.make (world "random" [ ("depth_hint", Param.Int (-7)) ]) );
      ( "corridor threshold -1",
        Scenario.make
          (Scenario.Adversarial
             { policy = "corridor"; params = [ ("threshold", Param.Int (-1)) ] })
      );
    ]
    @ List.map
        (fun (key, v) ->
          ( Printf.sprintf "fault %s %s" key
              (Param.bindings_to_string [ (key, v) ]),
            Scenario.make ~faults:[ (key, v) ] (Scenario.world "comb") ))
        [
          ("rate", Param.Float (-0.1));
          ("rate", Param.Float 1.5);
          ("window", Param.Int 0);
          ("restart", Param.Int (-2));
          ("drops", Param.Float (-0.5));
          ("drops", Param.Float 1.0);
          ("mask", Param.String "sideways");
          ("mask_m", Param.Int 1);
          ("mask_p", Param.Float 1.5);
          ("mask_p", Param.Float Float.nan);
        ]);
  List.iter
    (fun (ell, k) ->
      expect_error
        (Printf.sprintf "bfdn-rec ell %d at k %d" ell k)
        (Scenario.make ~algo:"bfdn-rec" ~k
           ~algo_params:[ ("ell", Param.Int ell) ]
           (Scenario.world "comb")))
    [ (0, 8); (62, 1); (62, 3); (62, 64); (64, 1); (64, 3); (64, 64) ];
  checkb "grid 2^12 x 2^12 accepted" true
    (Scenario.validate
       (graph "grid" [ ("height", Param.Int 4096); ("width", Param.Int 4096) ])
    = Ok ());
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
    (* validate enforces each parameter's accepted values (and "lazy"
       only on the families with lazy support), so draw inside them *)
    let ints lo hi =
      map (fun i -> Param.Int i) (int_range (max lo (-1000)) (min hi 1000))
    in
    match (s.accepts, s.default) with
    | Param.One_of _, _ when s.key = "scale" ->
        let choices =
          "eager"
          ::
          (match world with
          | Some w when Bfdn_sim.Lazy_world.supported w -> [ "lazy" ]
          | _ -> [])
        in
        map (fun s -> Param.String s) (oneofl choices)
    | Param.One_of names, _ -> map (fun s -> Param.String s) (oneofl names)
    | Param.Ints (lo, hi), _ -> ints lo hi
    | Param.Floats (lo, hi), _ ->
        map (fun f -> Param.Float f) (float_range (max lo (-1e6)) (min hi 1e6))
    | Param.Any, Param.Int _ -> ints min_int max_int
    | Param.Any, Param.Float _ ->
        map (fun f -> Param.Float f) (float_range (-1e6) 1e6)
    | Param.Any, Param.Bool _ -> map (fun b -> Param.Bool b) bool
    | Param.Any, Param.String _ ->
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
  (* a world decided as it is explored takes adaptive algorithms only *)
  let revealed =
    match instance with
    | Scenario.World { params; _ } ->
        List.assoc_opt "scale" params = Some (Param.String "lazy")
    | _ -> true
  in
  oneofl
    (if revealed then Algo_registry.adaptive_names
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

(* Whatever validate accepts runs: a random registry world or policy
   against any algorithm, every parameter drawn around the edges of its
   accepted values (ints from [-2, 64], floats from [-1, 2], strings
   from the accepted ones plus a bogus one). Either validate refuses the
   spec, or Scenario.run returns. *)
let prop_validated_specs_run =
  let open QCheck2.Gen in
  let value_for (s : Param.spec) =
    match s.default with
    | Param.Int _ -> map (fun i -> Param.Int i) (int_range (-2) 64)
    | Param.Float _ -> map (fun f -> Param.Float f) (float_range (-1.0) 2.0)
    | Param.Bool _ -> map (fun b -> Param.Bool b) bool
    | Param.String _ ->
        let accepted =
          match s.accepts with Param.One_of names -> names | _ -> []
        in
        map (fun v -> Param.String v) (oneofl ("bogus" :: accepted))
  in
  let bindings_for schema =
    flatten_l
      (List.map
         (fun (s : Param.spec) -> map (fun v -> (s.key, v)) (value_for s))
         schema)
  in
  let gen =
    bool >>= fun adversarial ->
    (if adversarial then
       oneofl World_registry.policies
       >>= fun (p : World_registry.policy_entry) ->
       bindings_for p.p_params >>= fun params ->
       return (Scenario.Adversarial { policy = p.p_name; params })
     else
       oneofl World_registry.worlds >>= fun (e : World_registry.entry) ->
       bindings_for e.params >>= fun params ->
       return (Scenario.World { world = e.name; params }))
    >>= fun instance ->
    oneofl Algo_registry.all >>= fun (a : Algo_registry.entry) ->
    bindings_for a.params >>= fun algo_params ->
    int_range 1 64 >>= fun k ->
    int_range 0 1000 >>= fun seed ->
    int_range 1 40 >>= fun max_rounds ->
    return
      (Scenario.make ~algo:a.name ~algo_params ~k ~seed ~max_rounds instance)
  in
  QCheck2.Test.make ~count:1000 ~name:"validated specs run"
    ~print:Scenario.describe gen (fun spec ->
      match Scenario.validate spec with
      | Error _ -> true
      | Ok () -> (
          match Scenario.run spec with
          | _ -> true
          | exception e ->
              QCheck2.Test.fail_reportf "validated, then raised %s"
                (Printexc.to_string e)))

(* ---- execution equivalence ----

   Scenario.run must reproduce the exact Exec_env.result of the hand-built
   wiring it replaced. The 42 configs are those of test_golden.ml: the 7
   golden families × 3 anchor policies × shortcut ∈ {false, true}, at
   k = 9, n = 500, depth_hint = 12, with the engine's historical stream
   derivation (split 0 = tree, split 1 = algorithm). *)

let result_t =
  Alcotest.testable Exec_env.pp_result (fun (a : Exec_env.result) b -> a = b)

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
  Exec_env.run (Exec_env.of_env (Bfdn_algo.algo t) env)

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
  (* eager worlds hold every node up front: they stop at 2^24 *)
  let eager n =
    Scenario.make ~k:4 ~seed:7
      (Scenario.generated ~family:"random" ~n ~depth_hint:20)
  in
  let eager_limit = World_registry.max_eager_nodes in
  checki "the eager limit is 2^24" (1 lsl 24) eager_limit;
  checkb "eager n = 2^24 validates" true
    (Scenario.validate (eager eager_limit) = Ok ());
  checkb "eager n = 2^24 + 1 is rejected" true
    (Result.is_error (Scenario.validate (eager (eager_limit + 1))))

(* The CLI binds a --param KEY to the fault schema when KEY starts with
   "fault.", else to the world's or policy's schema when KEY is in it,
   else to the algorithm's. That routing is unambiguous only while no
   world or policy key is an algorithm key or starts with "fault.". *)
let test_param_routing_unambiguous () =
  let keys schema = List.map (fun (s : Param.spec) -> s.key) schema in
  let algo_keys =
    List.concat_map (fun (e : Algo_registry.entry) -> keys e.params)
      Algo_registry.all
  in
  let check owner schema =
    List.iter
      (fun key ->
        checkb (owner ^ "." ^ key ^ " is no algorithm key") false
          (List.mem key algo_keys);
        checkb (owner ^ "." ^ key ^ " is not fault-prefixed") false
          (String.starts_with ~prefix:"fault." key))
      (keys schema)
  in
  List.iter
    (fun (e : World_registry.entry) -> check e.name e.params)
    World_registry.worlds;
  List.iter
    (fun (p : World_registry.policy_entry) ->
      check ("adv:" ^ p.p_name) p.p_params)
    World_registry.policies

(* ---- the instance cache ---- *)

let deterministic_families =
  List.filter Tree_gen.deterministic_family Tree_gen.families

let cache_stats = World_registry.instance_cache_stats

(* A run on a warm cache equals the same spec on a freshly built tree,
   on the tree and the async driver, and specs that differ only in
   algorithm, k or seed share one tree value. *)
let test_instance_cache_warm_equals_fresh () =
  List.iter
    (fun family ->
      let n = 317 and depth_hint = 9 in
      let fresh =
        Tree_gen.of_family family ~rng:(Rng.create 0) ~n ~depth_hint
      in
      List.iter
        (fun algo ->
          let spec =
            Scenario.make ~algo ~k:6 ~seed:3
              (Scenario.generated ~family ~n ~depth_hint)
          in
          let label = family ^ "/" ^ algo in
          ignore (Scenario.run spec);
          let before = cache_stats () in
          let warm = Scenario.run spec in
          let after = cache_stats () in
          checki (label ^ ": warm run hits") (before.hits + 1) after.hits;
          checki (label ^ ": warm run builds nothing") before.misses
            after.misses;
          checkb (label ^ ": warm run equals a fresh build") true
            (Scenario.equal_outcome warm (Scenario.run_on_tree spec fresh));
          checkb (label ^ ": cached tree equals a fresh build") true
            (Bfdn_trees.Tree.equal (Scenario.materialize spec) fresh);
          checkb (label ^ ": other algo, k and seed share the tree") true
            (Scenario.materialize spec
            == Scenario.materialize
                 { spec with Scenario.algo = "cte"; k = 2; seed = 99 }))
        [ "bfdn"; "bfdn-async" ])
    deterministic_families

(* Randomized families, scale=lazy, adaptive and graph worlds neither
   read nor fill the cache. *)
let test_instance_cache_bypass () =
  let before = cache_stats () in
  let tree_spec ?(params = []) family =
    Scenario.make ~k:4 ~seed:5
      (Scenario.world ~params:(("n", Param.Int 300) :: params) family)
  in
  let specs =
    List.map tree_spec
      (List.filter
         (fun f -> not (Tree_gen.deterministic_family f))
         Tree_gen.families)
    @ [
        tree_spec ~params:[ ("scale", Param.String "lazy") ] "comb";
        tree_spec ~params:[ ("scale", Param.String "lazy") ] "random";
        Scenario.make ~k:4 ~seed:7
          (Scenario.adversarial ~policy:"thick-comb" ~capacity:120
             ~depth_budget:30);
        grid_spec ();
        Scenario.make ~algo:"bfdn-graph" ~k:6 ~seed:3
          (Scenario.world ~params:[ ("n", Param.Int 200) ] "random-graph");
      ]
  in
  List.iter
    (fun spec ->
      checkb (Scenario.describe spec ^ " explores") true
        (Scenario.run spec).Scenario.result.explored;
      match spec.Scenario.instance with
      | World { world; _ } when List.mem world Tree_gen.families ->
          ignore (Scenario.materialize spec)
      | _ -> ())
    specs;
  let after = cache_stats () in
  checkb "no lookup, build or eviction" true (before = after)

(* A tree above the budget is built per use and never retained; past the
   budget the least recently used tree goes and the held nodes stay
   within it. *)
let test_instance_cache_budget () =
  let budget = World_registry.instance_cache_budget in
  let spec ~n ~depth_hint =
    Scenario.make (Scenario.generated ~family:"star" ~n ~depth_hint)
  in
  let big = spec ~n:(budget + 1) ~depth_hint:1 in
  let before = cache_stats () in
  let a = Scenario.materialize big in
  let b = Scenario.materialize big in
  let after = cache_stats () in
  checkb "over-budget tree built per use" true (a != b);
  checki "over-budget tree not held" before.weight after.weight;
  checki "both uses missed" (before.misses + 2) after.misses;
  let half = (budget / 2) + 1 in
  let third = List.map (fun d -> spec ~n:half ~depth_hint:d) [ 1; 2; 3 ] in
  List.iter (fun s -> ignore (Scenario.materialize s)) third;
  let filled = cache_stats () in
  checkb "filling past the budget evicts" true
    (filled.evictions > after.evictions);
  checkb "held nodes within the budget" true (filled.weight <= budget);
  (* the first of the three was the least recently used *)
  ignore (Scenario.materialize (List.hd third));
  checki "the evicted tree is rebuilt" (filled.misses + 1)
    (cache_stats ()).misses

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
      QCheck_alcotest.to_alcotest prop_validated_specs_run;
      tc "--param routing is unambiguous" test_param_routing_unambiguous;
      tc "instance cache: warm run equals a fresh build"
        test_instance_cache_warm_equals_fresh;
      tc "instance cache: bypassed by other worlds" test_instance_cache_bypass;
      tc "instance cache: LRU within its node budget"
        test_instance_cache_budget;
    ] )
