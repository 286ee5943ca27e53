module Env = Bfdn_sim.Env
module Exec_env = Bfdn_sim.Exec_env
module Rng = Bfdn_util.Rng
module Probe = Bfdn_obs.Probe
module Json = Bfdn_obs.Json

type instance =
  | World of { world : string; params : Param.binding list }
  | Adversarial of { policy : string; params : Param.binding list }

type t = {
  instance : instance;
  algo : string;
  algo_params : Param.binding list;
  k : int;
  seed : int;
  max_rounds : int option;
  metrics : bool;
  faults : Param.binding list;
  batch_seeds : int;
      (* S >= 1: the spec stands for the S seeds [seed, seed + S).
         1 (the default, and the only value [run] executes directly)
         keeps the wire form byte-identical to pre-batch specs. *)
}

type outcome = {
  result : Exec_env.result;
  replay_rounds : int option;
  n : int;
  depth : int;
  max_degree : int;
}

let canon_instance = function
  | World { world; params } -> World { world; params = Param.canon params }
  | Adversarial { policy; params } ->
      Adversarial { policy; params = Param.canon params }

let make ?(algo = "bfdn") ?(algo_params = []) ?(k = 8) ?(seed = 0) ?max_rounds
    ?(metrics = false) ?(faults = []) ?(batch_seeds = 1) instance =
  {
    instance = canon_instance instance;
    algo;
    algo_params = Param.canon algo_params;
    k;
    seed;
    max_rounds;
    metrics;
    faults = Param.canon faults;
    batch_seeds;
  }

(* Lane [i] of a batched spec: the plain spec the batch engine's result
   for seed [seed + i] must be byte-identical to (the batch determinism
   oracle). Total order over lanes is the seed order. *)
let unbatch t i =
  if i < 0 || i >= t.batch_seeds then
    invalid_arg
      (Printf.sprintf "Scenario.unbatch: lane %d out of range (batch of %d)" i
         t.batch_seeds);
  { t with batch_seeds = 1; seed = t.seed + i }

let world ?(params = []) name = World { world = name; params }

let generated ~family ~n ~depth_hint =
  World
    {
      world = family;
      params = [ ("depth_hint", Param.Int depth_hint); ("n", Param.Int n) ];
    }

let adversarial ~policy ~capacity ~depth_budget =
  Adversarial
    {
      policy;
      params =
        [ ("capacity", Param.Int capacity);
          ("depth_budget", Param.Int depth_budget);
        ];
    }

let instance_label t =
  match t.instance with
  | World { world; _ } -> world
  | Adversarial { policy; _ } -> World_registry.policy_prefix ^ policy

let of_label ?(params = []) label =
  let prefix = World_registry.policy_prefix in
  if String.starts_with ~prefix label then
    let skip = String.length prefix in
    Adversarial
      { policy = String.sub label skip (String.length label - skip); params }
  else World { world = label; params }

let instance_schema = function
  | World { world; _ } ->
      Option.fold ~none:[] ~some:(fun e -> e.World_registry.params)
        (World_registry.find world)
  | Adversarial { policy; _ } ->
      Option.fold ~none:[] ~some:(fun p -> p.World_registry.p_params)
        (World_registry.find_policy policy)

let describe t =
  let with_params name params =
    if params = [] then name
    else Printf.sprintf "%s(%s)" name (Param.bindings_to_string params)
  in
  let inst =
    match t.instance with
    | World { world; params } -> with_params world params
    | Adversarial { policy; params } ->
        with_params (World_registry.policy_prefix ^ policy) params
  in
  let cap =
    match t.max_rounds with
    | None -> ""
    | Some m -> Printf.sprintf " max_rounds=%d" m
  in
  let flt =
    if t.faults = [] then ""
    else Printf.sprintf " faults(%s)" (Param.bindings_to_string t.faults)
  in
  let batch =
    if t.batch_seeds = 1 then ""
    else Printf.sprintf " batch=%d" t.batch_seeds
  in
  Printf.sprintf "%s/%s k=%d seed=%d%s%s%s" inst
    (with_params t.algo t.algo_params)
    t.k t.seed cap flt batch

let equal (a : t) (b : t) = a = b
let equal_outcome (a : outcome) (b : outcome) = a = b

(* ---- the run plan ----

   Every decision about how a spec runs is made here, once: which world
   source hides the instance and whether the algorithm's one constructor
   drives it. Validation, the wire version and every executor read the
   plan; none of them looks a name up again. *)

let ( let* ) = Result.bind

type plan = { source : World_registry.source; make : Algo_registry.make }

(* The fleet size sizes per-robot arrays before the first round: an
   unbounded [k] is an allocation request, not a scenario. *)
let max_k = 1 lsl 20
let max_batch_seeds = 1 lsl 16

(* The entry's constructor, when it drives the world's source. *)
let driver_for t (e : Algo_registry.entry) (source : World_registry.source) =
  let no fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  match (source, e.make) with
  | Graph_world _, Graph _
  | (Eager_tree _ | Lazy_tree _), Tree _
  | Eager_tree _, Async _
  | Adaptive _, Tree { adaptive = true; _ } ->
      Ok e.make
  | Graph_world _, _ ->
      no
        "algorithm %S does not run on graph worlds (world %S needs a \
         graph-capable algorithm, e.g. bfdn-graph)"
        t.algo (instance_label t)
  | Lazy_tree _, Async _ ->
      no
        "algorithm %S needs an eagerly materialized world (scale=lazy is \
         tree-runner only)"
        t.algo
  | (Eager_tree _ | Lazy_tree _), Graph _ ->
      no "algorithm %S does not run on tree worlds" t.algo
  | Adaptive _, _ ->
      no
        "algorithm %S is not adaptive-capable and cannot face an adversarial \
         world"
        t.algo

(* Name lookups, parameter checks and the (source, constructor) decision
   — all the wire version needs. *)
let resolve t =
  let* e =
    match Algo_registry.find t.algo with
    | None -> Error (Printf.sprintf "unknown algorithm %S" t.algo)
    | Some e -> Ok e
  in
  let* () =
    Result.map_error
      (fun msg -> Printf.sprintf "algorithm %S: %s" t.algo msg)
      (Param.validate ~schema:e.params t.algo_params)
  in
  let* source =
    match t.instance with
    | World { world; params } -> World_registry.world_source world params
    | Adversarial { policy; params } ->
        World_registry.policy_source policy params
  in
  let* make = driver_for t e source in
  Ok { source; make }

let plan t =
  let* p = resolve t in
  let* () =
    if t.k >= 1 && t.k <= max_k then Ok ()
    else Error (Printf.sprintf "k must be in [1, %d]" max_k)
  in
  let* () = Fault_spec.validate ~k:t.k t.faults in
  let* () =
    if t.batch_seeds >= 1 && t.batch_seeds <= max_batch_seeds then Ok ()
    else Error (Printf.sprintf "batch seeds must be in [1, %d]" max_batch_seeds)
  in
  match t.max_rounds with
  | Some m when m < 1 -> Error "max_rounds must be >= 1"
  | _ -> Ok p

let validate t = Result.map ignore (plan t)

let graph_only t =
  Printf.sprintf "algorithm %S runs on graph worlds only, not on a tree" t.algo

let validate_tree_run t =
  let* p = plan t in
  match p.make with
  | Tree _ | Async _ -> Ok ()
  | Graph _ -> Error (graph_only t)

(* ---- JSON codec ----

   {"schema_version":1,
    "world":{"name":"comb","params":{"depth_hint":12,"n":500}},   (xor "adversary")
    "algo":{"name":"bfdn","params":{}},
    "k":9,"seed":3,"metrics":false}                               (optional "max_rounds")

   Parameter objects are emitted in canonical (sorted) key order and
   decoded back to canonical bindings, so decode ∘ encode = id. *)

let schema_version = 1

(* Version 2 extends the vocabulary (graph/grid worlds, async-only
   algorithms, seed batches) without changing the member shape. It is
   emitted only for specs that need it, so every version-1 spec — and
   its fingerprint, the serve cache key — stays byte-identical (pinned
   by the wire-shape golden test). The parser accepts both. *)
let schema_version_graph = 2

let wire_version t =
  (* an invalid spec never decodes, so its version is only cosmetic *)
  match resolve t with
  | (Ok { make = Tree _; _ } | Error _) when t.batch_seeds = 1 ->
      schema_version
  | _ -> schema_version_graph

let named name params =
  Json.Obj [ ("name", Json.String name); ("params", Param.to_json params) ]

let to_json t =
  let instance_field =
    match t.instance with
    | World { world; params } -> ("world", named world params)
    | Adversarial { policy; params } -> ("adversary", named policy params)
  in
  let tail =
    (match t.max_rounds with
    | None -> []
    | Some m -> [ ("max_rounds", Json.Int m) ])
    @ [ ("metrics", Json.Bool t.metrics) ]
  in
  (* "faults" is emitted only when non-empty, so pre-fault specs encode
     byte-identically (the wire-shape golden test pins this). *)
  let faults_field =
    if t.faults = [] then []
    else [ ("faults", Param.to_json t.faults) ]
  in
  (* Same policy for "batch": a 1-seed batch IS the plain spec, on the
     wire and in the cache (their fingerprints coincide by design). *)
  let batch_field =
    if t.batch_seeds = 1 then []
    else [ ("batch", Json.Obj [ ("seeds", Json.Int t.batch_seeds) ]) ]
  in
  Json.Obj
    ([ ("schema_version", Json.Int (wire_version t));
       instance_field;
       ("algo", named t.algo t.algo_params);
     ]
    @ faults_field @ batch_field
    @ [ ("k", Json.Int t.k); ("seed", Json.Int t.seed) ]
    @ tail)

let int_field j key =
  match Json.member key j with
  | Some (Json.Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" key)
  | None -> Error (Printf.sprintf "missing field %S" key)

let named_of_json ~what j =
  match Json.member "name" j with
  | Some (Json.String name) -> (
      match Json.member "params" j with
      | None -> Ok (name, [])
      | Some pj -> (
          match Param.of_json pj with
          | Ok params -> Ok (name, params)
          | Error msg -> Error (Printf.sprintf "%s params: %s" what msg)))
  | Some _ -> Error (Printf.sprintf "%s: \"name\" must be a string" what)
  | None -> Error (Printf.sprintf "%s: missing \"name\"" what)

let of_json j =
  let* version = int_field j "schema_version" in
  let* () =
    if version = schema_version || version = schema_version_graph then Ok ()
    else Error (Printf.sprintf "unsupported schema_version %d" version)
  in
  let* instance =
    match (Json.member "world" j, Json.member "adversary" j) with
    | Some _, Some _ -> Error "spec has both \"world\" and \"adversary\""
    | None, None -> Error "spec needs a \"world\" or an \"adversary\""
    | Some wj, None ->
        let* world, params = named_of_json ~what:"world" wj in
        Ok (World { world; params })
    | None, Some aj ->
        let* policy, params = named_of_json ~what:"adversary" aj in
        Ok (Adversarial { policy; params })
  in
  let* algo, algo_params =
    match Json.member "algo" j with
    | None -> Error "missing field \"algo\""
    | Some aj -> named_of_json ~what:"algo" aj
  in
  let* k = int_field j "k" in
  let* seed = int_field j "seed" in
  let* max_rounds =
    match Json.member "max_rounds" j with
    | None -> Ok None
    | Some (Json.Int m) -> Ok (Some m)
    | Some _ -> Error "field \"max_rounds\" must be an integer"
  in
  let* metrics =
    match Json.member "metrics" j with
    | None -> Ok false
    | Some (Json.Bool b) -> Ok b
    | Some _ -> Error "field \"metrics\" must be a boolean"
  in
  let* faults =
    match Json.member "faults" j with
    | None -> Ok []
    | Some fj -> (
        match Param.of_json fj with
        | Ok params -> Ok params
        | Error msg -> Error (Printf.sprintf "faults params: %s" msg))
  in
  let* batch_seeds =
    match Json.member "batch" j with
    | None -> Ok 1
    | Some bj -> (
        match int_field bj "seeds" with
        | Ok s -> Ok s
        | Error msg -> Error ("batch: " ^ msg))
  in
  Ok
    {
      instance;
      algo;
      algo_params;
      k;
      seed;
      max_rounds;
      metrics;
      faults;
      batch_seeds;
    }

let to_string t = Json.to_string (to_json t)

(* The canonical spec hash used as the serve layer's result-cache key.
   The wire form is already canonical (fixed member order, sorted
   params), so hashing it hashes the spec. [metrics] is advisory — it
   never alters results (probes observe without perturbing) — so it is
   normalized out: toggling a dashboard must not defeat the cache.
   FNV-1a over Int64 keeps the value identical on every platform. *)
let fingerprint t =
  let wire = to_string { t with metrics = false } in
  (* a loop-local accumulator stays unboxed *)
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length wire - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get wire i))))
        0x100000001b3L
  done;
  Printf.sprintf "%016Lx" !h

(* Canonical serializable outcome — the "Report" body served (and
   cached) by the serve layer. Field order is fixed and every value is
   scalar, so same outcome ⇒ same bytes. *)
let outcome_to_json (o : outcome) =
  Json.Obj
    [
      ("rounds", Json.Int o.result.Exec_env.rounds);
      ("explored", Json.Bool o.result.Exec_env.explored);
      ("at_root", Json.Bool o.result.Exec_env.at_root);
      ("moves", Json.Int o.result.Exec_env.moves);
      ("edge_events", Json.Int o.result.Exec_env.edge_events);
      ("hit_round_limit", Json.Bool o.result.Exec_env.hit_round_limit);
      ( "replay_rounds",
        match o.replay_rounds with None -> Json.Null | Some r -> Json.Int r );
      ("n", Json.Int o.n);
      ("depth", Json.Int o.depth);
      ("max_degree", Json.Int o.max_degree);
    ]

(* Machine-readable dump of every dispatch table — one source shared by
   [explore list --json] and the server's [GET /registry], so external
   tooling never scrapes the human-format listing. *)
let registry_json () =
  let caps (c : Algo_registry.caps) =
    Json.Obj
      [
        ("adaptive", Json.Bool c.adaptive);
        ("async", Json.Bool c.async);
        ("graph", Json.Bool c.graph);
        ("tree", Json.Bool c.tree);
      ]
  in
  let algorithms =
    List.map
      (fun (e : Algo_registry.entry) ->
        let c = Algo_registry.caps e in
        Json.Obj
          [
            ("name", Json.String e.name);
            ("aliases", Json.List (List.map (fun a -> Json.String a) e.aliases));
            ("doc", Json.String e.doc);
            ("caps", caps c);
            ("runnable", Json.Bool (c.tree || c.graph || c.async));
            ("params", Param.json_of_schema e.params);
          ])
      Algo_registry.all
  in
  let worlds =
    List.map
      (fun (e : World_registry.entry) ->
        let kind =
          match e.kind with
          | World_registry.Tree _ -> "tree"
          | World_registry.Graph _ -> "graph"
        in
        Json.Obj
          [
            ("name", Json.String e.name);
            ("kind", Json.String kind);
            ("doc", Json.String e.doc);
            ("params", Param.json_of_schema e.params);
          ])
      World_registry.worlds
  in
  let policies =
    List.map
      (fun (p : World_registry.policy_entry) ->
        Json.Obj
          [
            ("name", Json.String p.p_name);
            ("doc", Json.String p.p_doc);
            ("params", Param.json_of_schema p.p_params);
          ])
      World_registry.policies
  in
  Json.Obj
    [
      ("schema_version", Json.Int schema_version_graph);
      ("algorithms", Json.List algorithms);
      ("worlds", Json.List worlds);
      ("policies", Json.List policies);
      ("faults", Param.json_of_schema Fault_spec.schema);
    ]

let of_string s =
  let* j =
    match Json.of_string s with
    | Ok j -> Ok j
    | Error msg -> Error ("spec is not valid JSON: " ^ msg)
  in
  let* t = of_json j in
  let* () = validate t in
  Ok t

let save ~path t = Bfdn_util.Atomic_file.write ~path (to_string t ^ "\n")

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match of_string (String.trim contents) with
      | Ok t -> Ok t
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

(* ---- execution ----

   The seed derivation is load-bearing: split index 0 is the instance
   stream, split index 1 the algorithm stream, and an adversarial replay
   re-derives the algorithm stream from scratch so the frozen-tree re-run
   sees exactly the stream the adaptive run saw. This matches the engine's
   historical engine wiring bit for bit (asserted by the golden
   equivalence suite in test/test_scenario.ml). *)

let instance_stream root = Rng.split root 0
let algo_stream root = Rng.split root 1

(* Split index 2. Existing seeds keep their instance and algorithm
   streams bit for bit (Rng.split is pure), so fault-free scenarios run
   identically to the pre-fault library — asserted by the golden
   equivalence suite. *)
let fault_stream root = Rng.split root 2

let planned t =
  match plan t with
  | Ok p -> p
  | Error msg -> invalid_arg ("Scenario: " ^ msg ^ " in " ^ describe t)

(* The plan is re-derived from the seed wherever the run is
   (re-)executed — main run, adversarial replay, any engine worker — so
   every execution of a spec injects the identical schedule. *)
let fault_plan t =
  Fault_spec.plan ~rng:(fault_stream (Rng.create t.seed)) ~k:t.k t.faults

let ctx ~probe ~rng ?fault t =
  { Algo_registry.rng; probe; params = t.algo_params; fault }

(* What each world contributes to a run: an execution view, and the
   oracle stats (n, depth, max degree) of its hidden instance — read
   after the run, since a lazy world only knows them once explored — and
   how to hand its per-node pages back. The one shared step [execute]
   drives every view through [Exec_env.run] and then releases it, also
   when the run raises, so the next run on the domain reuses the pages. *)
type view = {
  exec : Exec_env.t;
  stats : unit -> int * int * int;
  release : unit -> unit;
}

let execute ~probe ?on_round t v =
  Fun.protect ~finally:v.release (fun () ->
      let result =
        Exec_env.run ?max_rounds:t.max_rounds ?on_round ~probe v.exec
      in
      let n, depth, max_degree = v.stats () in
      { result; replay_rounds = None; n; depth; max_degree })

(* [Env.release] leaves a lazy world's store alone. *)
let env_view algo env =
  {
    exec = Exec_env.of_env algo env;
    stats =
      (fun () ->
        (Env.oracle_n env, Env.oracle_depth env, Env.oracle_max_degree env));
    release = (fun () -> Env.release env);
  }

(* A hidden tree world — eager, lazily materialized or adaptive — driven
   by the spec's synchronous tree algorithm. *)
let world_view ~probe ~rng ~fault t algo w =
  let env = Env.of_world w ~k:t.k ~fault:(Bfdn_faults.Injector.hook_opt fault) in
  env_view (algo (ctx ~probe ~rng ?fault t) env) env

(* An explicit hidden tree: the synchronous tree runner, or the same
   instance stepped in unit-time horizons. *)
let tree_view ~probe ~rng ~fault t (make : Algo_registry.make) tree =
  match make with
  | Tree { algo; _ } ->
      world_view ~probe ~rng ~fault t algo (Env.world_of_tree tree)
  | Async make ->
      let module Tree = Bfdn_trees.Tree in
      let stats = (Tree.n tree, Tree.depth tree, Tree.max_degree tree) in
      {
        exec = make (ctx ~probe ~rng ?fault t) tree ~k:t.k;
        stats = (fun () -> stats);
        release = ignore;
      }
  | Graph _ -> invalid_arg ("Scenario: " ^ graph_only t ^ " in " ^ describe t)

(* Graph worlds: thread the fault hook into the graph environment. *)
let graph_view ~probe ~rng ~fault t make (g, origin) =
  let module Genv = Bfdn_graphs.Graph_env in
  let genv =
    Genv.create ~fault:(Bfdn_faults.Injector.hook_opt fault) g ~origin ~k:t.k
  in
  {
    exec = make (ctx ~probe ~rng ?fault t) genv;
    stats =
      (fun () ->
        ( Genv.oracle_n_nodes genv,
          Genv.oracle_radius genv,
          Genv.oracle_max_degree genv ));
    release = ignore;
  }

let on_tree ?(probe = Probe.noop) ?on_round t make tree =
  let rng = algo_stream (Rng.create t.seed) in
  execute ~probe ?on_round t
    (tree_view ~probe ~rng ~fault:(fault_plan t) t make tree)

let run_on_tree ?probe ?on_round t tree =
  on_tree ?probe ?on_round t (planned t).make tree

let run_witnessed ?(probe = Probe.noop) ?on_round t =
  let p = planned t in
  if t.batch_seeds > 1 then
    invalid_arg
      ("Scenario.run: batched spec (batch.seeds = "
      ^ string_of_int t.batch_seeds
      ^ "); execute it with Seed_batch.run (lib/engine), or run one lane \
         via unbatch: "
      ^ describe t);
  let root = Rng.create t.seed in
  let fault = fault_plan t in
  let instance = instance_stream root in
  let rng = algo_stream root in
  let exec v = execute ~probe ?on_round t v in
  let outcome =
    match (p.source, p.make) with
    | Eager_tree { build; _ }, make ->
        exec (tree_view ~probe ~rng ~fault t make (build instance))
    | Graph_world build, Graph make ->
        exec (graph_view ~probe ~rng ~fault t make (build instance))
    | Lazy_tree make_world, Tree { algo; _ } ->
        exec
          (world_view ~probe ~rng ~fault t algo
             (Bfdn_sim.Lazy_world.world (make_world instance)))
    | Adaptive make_world, Tree { algo; _ } ->
        let adv = make_world instance in
        let adaptive =
          exec
            (world_view ~probe ~rng ~fault t algo
               (Bfdn_sim.Lazy_world.world adv))
        in
        (* Replay on the frozen tree: the same spec, so the same algorithm
           and fault streams, re-derived from the seed. *)
        let replay = on_tree t p.make (Bfdn_sim.Lazy_world.frozen adv) in
        {
          replay with
          result = adaptive.result;
          replay_rounds = Some replay.result.rounds;
        }
    | (Graph_world _ | Lazy_tree _ | Adaptive _), _ ->
        invalid_arg
          "Scenario.run: the plan pairs this world with no constructor"
  in
  (* Every draw advances the stream's state and [Rng.split] is pure, so
     an equal fresh derivation proves the algorithm drew nothing. *)
  (outcome, Rng.equal rng (algo_stream root))

let run ?probe ?on_round t = fst (run_witnessed ?probe ?on_round t)

let materialize t =
  let p = planned t and instance = instance_stream (Rng.create t.seed) in
  match p.source with
  | Eager_tree { build; _ } -> build instance
  | Lazy_tree make_world ->
      (* The same seed derivation as [run], so the materialized tree is
         the instance a (breadth-first) lazy run discovers. *)
      Bfdn_sim.Lazy_world.materialize (make_world instance)
  | Adaptive _ ->
      invalid_arg
        ("Scenario.materialize: adversarial worlds only exist after a run: "
       ^ describe t)
  | Graph_world _ ->
      invalid_arg
        ("Scenario.materialize: " ^ instance_label t
       ^ " is a graph world, not a tree: " ^ describe t)

let seeds_share_tree t =
  match planned t with
  | { source = Eager_tree { deterministic = true; _ }; make = Tree _ } -> true
  | _ -> false
