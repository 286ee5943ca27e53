(* bfdn-explore: command-line driver for the collaborative-exploration
   library. Subcommands:

   run       run one scenario on any registered world (flags or a
             --spec JSON file)
   sweep     run (family x algo x k) cells as seed batches on the
             parallel engine
   list      print every registered algorithm, world and adversary
   serve     run the scenario-execution HTTP service
   submit    POST a spec to a running service
   game      play the Section 3 balls-in-urns game
   regions   print the Figure 1 region map
   bounds    print every guarantee formula for an instance shape
   tail      pretty-print observability JSONL (frames, spans, logs)
   promlint  validate a Prometheus text exposition document

   All algorithm and world dispatch goes through the Bfdn_scenario
   registries: the enums below are derived from them, so a variant
   registered there is reachable here with no CLI change. *)

open Cmdliner
module Env = Bfdn_sim.Env
module Exec_env = Bfdn_sim.Exec_env
module Trace = Bfdn_sim.Trace
module Rng = Bfdn_util.Rng
module Batch = Bfdn_engine.Batch
module Pool = Bfdn_engine.Pool
module Seed_batch = Bfdn_engine.Seed_batch
module Report = Bfdn_engine.Report
module Metrics = Bfdn_obs.Metrics
module Probe = Bfdn_obs.Probe
module Sink = Bfdn_obs.Sink
module Param = Bfdn_scenario.Param
module Fault_spec = Bfdn_scenario.Fault_spec
module Algo_registry = Bfdn_scenario.Algo_registry
module World_registry = Bfdn_scenario.World_registry
module Scenario = Bfdn_scenario.Scenario
module Json = Bfdn_obs.Json
module Log = Bfdn_obs.Log
module Tail = Bfdn_obs.Tail
module Prometheus = Bfdn_obs.Prometheus
module Server = Bfdn_serve.Server
module Client = Bfdn_serve.Client

(* A user error — a bad spec or parameter, an unreadable file, an
   operation the spec does not support — ends the command with one line
   on stderr and exit code 1; an uncaught exception stays a bug
   (cmdliner's exit 125). *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bfdn-explore: " ^ msg);
      exit 1)
    fmt

(* An output file that cannot be written is a user error too. *)
let writing flag file f =
  try f () with Sys_error msg -> die "%s: cannot write %s: %s" flag file msg

(* ---- shared arguments ---- *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* Counts are range-checked when the command runs, not by a cmdliner
   converter, so a bad one ends like every other user error: one line
   on stderr and exit 1. *)
let positive ~flag ?(hi = max_int) v =
  if v >= 1 && v <= hi then v
  else if hi = max_int then die "%s must be >= 1, got %d" flag v
  else die "%s must be in [1, %d], got %d" flag hi v

let k_arg =
  Term.(
    const (fun k -> positive ~flag:"-k" k)
    $ Arg.(
        value & opt int 8
        & info [ "k"; "robots" ] ~docv:"K" ~doc:"Number of robots (>= 1)."))

let names l = String.concat ", " l

(* Route each --param KEY=VALUE to the schema that owns KEY: fault.KEY
   to the fault-injection schema, a key of the world's (or policy's)
   schema to the world, any other key to the algorithm. No world or
   policy key is an algorithm key (asserted in test_scenario), so the
   routing is unambiguous. The owning schema's typed default decides how
   VALUE is read. Returns the (fault, world, algorithm) bindings. *)
let fault_prefix = "fault."

let route_params ~world ~world_schema ~algo kvs =
  let algo_schema =
    match Algo_registry.find algo with
    | Some e -> e.Algo_registry.params
    | None -> die "unknown algorithm %S" algo
  in
  let find schema key =
    List.find_opt (fun s -> String.equal s.Param.key key) schema
  in
  let keys schema =
    match schema with
    | [] -> "none"
    | l -> names (List.map (fun s -> s.Param.key) l)
  in
  let faults = ref [] and worlds = ref [] and algos = ref [] in
  List.iter
    (fun kv ->
      let key, v =
        match String.index_opt kv '=' with
        | None -> die "--param: expected KEY=VALUE, got %S" kv
        | Some i ->
            (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
      in
      let dest, name, spec =
        if String.starts_with ~prefix:fault_prefix key then
          let skip = String.length fault_prefix in
          let name = String.sub key skip (String.length key - skip) in
          (faults, name, find Fault_spec.schema name)
        else
          match find world_schema key with
          | Some s -> (worlds, key, Some s)
          | None -> (algos, key, find algo_schema key)
      in
      let spec =
        match spec with
        | Some s -> s
        | None ->
            die
              "--param: unknown parameter %S (algorithm %s: %s; world %s: \
               %s; %sKEY: %s)"
              key algo (keys algo_schema) world (keys world_schema)
              fault_prefix (keys Fault_spec.schema)
      in
      let bad ty = die "--param: parameter %s expects %s, got %S" key ty v in
      let value =
        match spec.Param.default with
        | Param.Int _ -> (
            match int_of_string_opt v with
            | Some i -> Param.Int i
            | None -> bad "an int")
        | Param.Float _ -> (
            match float_of_string_opt v with
            | Some f -> Param.Float f
            | None -> bad "a float")
        | Param.Bool _ -> (
            match bool_of_string_opt v with
            | Some b -> Param.Bool b
            | None -> bad "a bool")
        | Param.String _ -> Param.String v
      in
      if List.mem_assoc name !dest then die "--param: %s given twice" key;
      dest := (name, value) :: !dest)
    kvs;
  (List.rev !faults, List.rev !worlds, List.rev !algos)

(* ---- run ---- *)

let run_cmd =
  let family =
    Arg.(
      value
      & opt (enum World_registry.cli_choices) "random"
      & info [ "family"; "world" ] ~docv:"WORLD"
          ~doc:
            (Printf.sprintf
               "World: %s. $(b,adv:)POLICY is a tree grown online by that \
                adversary policy."
               (names (List.map fst World_registry.cli_choices))))
  in
  let algo_name =
    Arg.(
      value
      & opt (enum Algo_registry.cli_choices) "bfdn"
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:
            (Printf.sprintf
               "Algorithm: %s (see $(b,explore list) for the worlds each one \
                drives)."
               (names Algo_registry.names)))
  in
  let n =
    Arg.(
      value
      & opt (some int) None
      & info [ "n"; "nodes" ] ~docv:"N" ~absent:"5000"
          ~doc:"Target node count of a tree world.")
  in
  let depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "depth" ] ~docv:"D" ~absent:"20"
          ~doc:"Depth hint for a tree world's generator.")
  in
  let params =
    Arg.(
      value
      & opt_all string []
      & info [ "param"; "p" ] ~docv:"KEY=VALUE"
          ~doc:
            "World, policy or algorithm parameter (repeatable); see \
             $(b,explore list) for each schema, e.g. --algo bfdn-rec --param \
             ell=3, --world grid --param width=40, --world adv:thick-comb \
             --param capacity=3000. Keys prefixed $(b,fault.) address the \
             fault-injection schema, e.g. --param fault.crashes=2@10 --param \
             fault_tolerant=true. A world key overrides -n, --depth and \
             --scale.")
  in
  let max_rounds =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-rounds" ] ~docv:"R"
          ~doc:"Round cap (default: the Section 2.1 termination bound).")
  in
  let scale =
    Arg.(
      value
      & opt (some (enum [ ("eager", "eager"); ("lazy", "lazy") ])) None
      & info [ "scale" ] ~docv:"SCALE" ~absent:"eager"
          ~doc:
            "Tree world materialization: $(b,eager) builds the instance up \
             front, $(b,lazy) generates nodes at reveal so the run holds \
             O(explored) memory — the huge tier (supported families only). \
             Lazy node ids are int32: an instance of more than 2^30 \
             (1073741824) nodes is rejected.")
  in
  let rss =
    Arg.(
      value
      & flag
      & info [ "rss" ]
          ~doc:
            "Print the process's peak resident set (VmHWM) after the run \
             (Linux only).")
  in
  let spec_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"FILE.json"
          ~doc:
            "Load the whole scenario (world, algorithm, parameters, k, seed) \
             from a JSON spec file; the instance/algorithm flags are ignored.")
  in
  let dump_spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-spec" ] ~docv:"FILE"
          ~doc:
            "Write the scenario spec as JSON to $(docv) (- for stdout) and \
             exit without running — the file re-executes with --spec.")
  in
  let smoke =
    Arg.(
      value
      & flag
      & info [ "smoke" ]
          ~doc:
            "CI mode: one compact line of output; exit non-zero unless the \
             run fully explored its instance.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE.jsonl"
          ~doc:"Stream one JSON frame per round (round, explored, dangling, positions) to $(docv).")
  in
  let watch =
    Arg.(value & flag & info [ "watch" ] ~doc:"Print the discovered tree after every round (small trees only).")
  in
  let metrics =
    Arg.(
      value
      & flag
      & info [ "metrics" ]
          ~doc:
            "Attach the standard probes (round counters, phase timing, anchor \
             switches) and print a metrics dashboard after the run.")
  in
  let tree_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "tree-file" ] ~docv:"FILE"
          ~doc:"Load the instance from a file written by --dump-tree instead of generating one.")
  in
  let dump_tree =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-tree" ] ~docv:"FILE" ~doc:"Write the instance to a file for later replay.")
  in
  let action spec_file dump_spec smoke family algo_name n depth params k seed
      max_rounds scale rss trace watch metrics tree_file dump_tree =
    let spec =
      match spec_file with
      | Some file -> (
          match Scenario.load file with
          | Ok s -> s
          | Error msg -> die "%s" msg)
      | None ->
          let faults, world_kvs, algo_params =
            route_params ~world:family
              ~world_schema:(Scenario.instance_schema (Scenario.of_label family))
              ~algo:algo_name params
          in
          let world_params =
            if List.mem family World_registry.tree_names then
              (* The bindings of Scenario.generated, and scale only when
                 it is lazy, so tree specs keep their wire form (and
                 fingerprint). *)
              List.filter
                (fun (key, _) -> not (List.mem_assoc key world_kvs))
                ([
                   ("depth_hint", Param.Int (Option.value depth ~default:20));
                   ("n", Param.Int (Option.value n ~default:5000));
                 ]
                @
                if scale = Some "lazy" then [ ("scale", Param.String "lazy") ]
                else [])
              @ world_kvs
            else if n <> None || depth <> None || scale <> None then
              die
                "-n, --depth and --scale size tree worlds; set the \
                 parameters of %s with --param KEY=VALUE"
                family
            else world_kvs
          in
          Scenario.make ~algo:algo_name ~algo_params ~k ~seed ?max_rounds
            ~metrics ~faults
            (Scenario.of_label ~params:world_params family)
    in
    let spec = if metrics then { spec with Scenario.metrics = true } else spec in
    (match Scenario.validate spec with Ok () -> () | Error msg -> die "%s" msg);
    (* Checked before anything is written: [run] executes one seed. *)
    if spec.Scenario.batch_seeds > 1 then
      die
        "the spec is a batch of %d seeds; run executes one seed (submit the \
         spec to explore serve, or drop its \"batch\" member)"
        spec.Scenario.batch_seeds;
    match dump_spec with
    | Some "-" -> print_endline (Scenario.to_string spec)
    | Some file ->
        writing "--dump-spec" file (fun () -> Scenario.save ~path:file spec);
        Printf.printf "spec written to %s\n" file
    | None ->
        (match dump_tree with
        | Some file ->
            (* materialize rejects, before building anything, a spec
               whose instance is not a tree known up front *)
            let tree =
              match Scenario.materialize spec with
              | tree -> tree
              | exception Invalid_argument msg -> die "--dump-tree: %s" msg
            in
            writing "--dump-tree" file (fun () ->
                Bfdn_util.Atomic_file.write ~path:file
                  (Bfdn_trees.Tree.to_string tree ^ "\n"));
            Printf.printf "instance written to %s\n" file
        | None -> ());
        let replay_tree =
          Option.map
            (fun file ->
              (match Scenario.validate_tree_run spec with
              | Ok () -> ()
              | Error msg -> die "--tree-file: %s" msg);
              match
                Bfdn_trees.Tree.of_string
                  (String.trim (In_channel.with_open_bin file In_channel.input_all))
              with
              | tree -> tree
              | exception (Sys_error msg | Invalid_argument msg | Failure msg) ->
                  die "--tree-file %s: %s" file msg)
            tree_file
        in
        let registry =
          if spec.Scenario.metrics then Some (Metrics.create ()) else None
        in
        let probe =
          match registry with Some m -> Probe.of_metrics m | None -> Probe.noop
        in
        let trace_oc =
          Option.map
            (fun file -> writing "--trace" file (fun () -> open_out file))
            trace
        in
        let on_round (exec : Exec_env.t) =
          (match trace_oc with
          | Some oc ->
              Sink.write_jsonl oc
                (Trace.json_of_frame (exec.Exec_env.frame ()))
          | None -> ());
          if watch then begin
            print_newline ();
            print_string (exec.Exec_env.render ())
          end
        in
        let outcome =
          match replay_tree with
          | Some tree -> Scenario.run_on_tree ~probe ~on_round spec tree
          | None -> Scenario.run ~probe ~on_round spec
        in
        let result = outcome.Scenario.result in
        (match (trace_oc, trace) with
        | Some oc, Some path ->
            close_out oc;
            Printf.printf "trace written to %s (%d frames)\n" path result.rounds
        | _ -> ());
        if smoke then begin
          Printf.printf "ok %s: rounds=%d explored=%b\n" (Scenario.describe spec)
            result.rounds result.explored;
          if not (result.explored && not result.hit_round_limit) then exit 1
        end
        else begin
          let nn = outcome.Scenario.n
          and d = outcome.Scenario.depth
          and delta = outcome.Scenario.max_degree
          and k = spec.Scenario.k in
          Printf.printf "instance: %s — n=%d D=%d Δ=%d (seed %d)\n"
            (Scenario.instance_label spec) nn d delta spec.Scenario.seed;
          Format.printf "%s with k=%d: %a@." spec.Scenario.algo k Exec_env.pp_result
            result;
          (match outcome.Scenario.replay_rounds with
          | Some r -> Printf.printf "frozen-tree replay : %d rounds\n" r
          | None -> ());
          Printf.printf "offline lower bound : %.0f\n"
            (Bfdn.Bounds.offline_lb ~n:nn ~k ~d:(max 1 d));
          (* Only the guarantee the paper proves for the run's setting. *)
          (match (Option.get (Algo_registry.find spec.Scenario.algo)).make with
          | Algo_registry.Tree _ ->
              Printf.printf "Theorem 1 guarantee : %.0f\n"
                (Bfdn.Bounds.bfdn ~n:nn ~k ~d ~delta);
              Printf.printf "CTE comparison bound: %.0f\n"
                (Bfdn.Bounds.cte ~n:nn ~k ~d)
          | Algo_registry.Graph _ when result.explored ->
              (* Graph_env counts each traversed edge once: a run that
                 explored the graph traversed all |E| of them. *)
              Printf.printf "Proposition 9 guarantee: %.0f\n"
                (Bfdn.Bounds.bfdn_graph ~n_edges:result.edge_events ~k ~d
                   ~delta)
          | Algo_registry.Graph _ ->
              print_endline
                "Proposition 9 guarantee: not available (the run did not \
                 explore the graph, so |E| is unknown)"
          | Algo_registry.Async _ -> ());
          (match registry with
          | Some m ->
              print_string
                (Sink.dashboard ~title:(spec.Scenario.algo ^ " metrics") m)
          | None -> ());
          if rss then
            (match Report.peak_rss_bytes () with
            | Some b ->
                Printf.printf "peak RSS            : %.1f MB\n"
                  (float_of_int b /. (1024. *. 1024.))
            | None -> print_endline "peak RSS            : unavailable");
          if result.hit_round_limit then exit 1
        end
  in
  let term =
    Term.(
      const action $ spec_file $ dump_spec $ smoke $ family $ algo_name $ n
      $ depth $ params $ k_arg $ seed_arg $ max_rounds $ scale $ rss $ trace
      $ watch $ metrics $ tree_file $ dump_tree)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one scenario — a tree, graph or adversary-grown world — given \
          by flags or a --spec JSON file.")
    term

(* ---- list ---- *)

let plain_list () =
    let schema_block params =
      let s = Param.describe_schema params in
      if s <> "" then print_string s
    in
    print_endline "Algorithms:";
    List.iter
      (fun (e : Algo_registry.entry) ->
        let c = Algo_registry.caps e in
        let caps =
          List.filter_map
            (fun (name, on) -> if on then Some name else None)
            [
              ("tree", c.Algo_registry.tree);
              ("adaptive", c.Algo_registry.adaptive);
              ("graph", c.Algo_registry.graph);
              ("async", c.Algo_registry.async);
            ]
        in
        let aliases =
          match e.aliases with
          | [] -> ""
          | l -> Printf.sprintf " (alias %s)" (names l)
        in
        Printf.printf "  %-14s [%s]%s\n      %s\n" e.name (names caps) aliases
          e.doc;
        schema_block e.params)
      Algo_registry.all;
    print_endline "\nWorlds:";
    List.iter
      (fun (e : World_registry.entry) ->
        let kind =
          match e.kind with
          | World_registry.Tree _ -> "tree"
          | World_registry.Graph _ -> "graph"
        in
        Printf.printf "  %-14s [%s]\n      %s\n" e.name kind e.doc;
        schema_block e.params)
      World_registry.worlds;
    print_endline "\nAdversary policies (adaptive worlds):";
    List.iter
      (fun (p : World_registry.policy_entry) ->
        Printf.printf "  %-14s %s\n" p.p_name p.p_doc;
        schema_block p.p_params)
      World_registry.policies;
    print_endline "\nFault injection (run --param fault.KEY=VALUE):";
    schema_block Fault_spec.schema;
    print_endline "\nUrn-game adversaries (game subcommand):";
    List.iter
      (fun (name, doc) -> Printf.printf "  %-14s %s\n" name doc)
      Bfdn.Urn_game.adversaries

let list_cmd =
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the registries as machine-readable JSON — the same \
             document a running service serves at GET /registry.")
  in
  let action json =
    if json then print_endline (Json.to_string (Scenario.registry_json ()))
    else plain_list ()
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "Print every registered algorithm, world and adversary policy with \
          its parameter schema.")
    Term.(const action $ json_flag)

(* ---- sweep ---- *)

let sweep_cmd =
  let module Table = Bfdn_util.Table in
  let comma_list ~docv ~doc ~default =
    Arg.(value & opt string default & info [ String.lowercase_ascii docv ] ~docv ~doc)
  in
  let families_arg =
    comma_list ~docv:"FAMILIES" ~default:"random,comb,trap"
      ~doc:
        (Printf.sprintf "Comma-separated tree worlds (of: %s)."
           (names World_registry.tree_names))
  in
  let algos_arg =
    comma_list ~docv:"ALGOS" ~default:"bfdn,cte"
      ~doc:
        (Printf.sprintf "Comma-separated algorithms (of: %s)."
           (names Algo_registry.tree_names))
  in
  let ks_arg =
    comma_list ~docv:"KS" ~default:"1,8,64" ~doc:"Comma-separated robot counts."
  in
  let jobs_arg =
    Term.(
      const (positive ~flag:"--jobs" ~hi:Pool.max_workers)
      $ Arg.(
          value
          & opt int (min Pool.max_workers (Domain.recommended_domain_count ()))
          & info [ "jobs"; "j" ] ~docv:"N"
              ~doc:
                (Printf.sprintf
                   "Worker domains for the batch (1 to %d). Results are \
                    identical for any value (deterministic sharded replay); \
                    only wall time changes."
                   Pool.max_workers)))
  in
  let n = Arg.(value & opt int 5000 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Target node count.") in
  let depth =
    Arg.(value & opt int 20 & info [ "depth" ] ~docv:"D" ~doc:"Depth hint for the generator.")
  in
  let repeats =
    Term.(
      const (positive ~flag:"--repeats" ~hi:Scenario.max_batch_seeds)
      $ Arg.(
          value & opt int 3
          & info [ "repeats" ] ~docv:"R"
              ~doc:
                (Printf.sprintf
                   "Seeds per (family, algo, k) cell, run as one seed batch \
                    (1 to %d)."
                   Scenario.max_batch_seeds)))
  in
  let out =
    Arg.(
      value
      & opt (some string) (Some "BENCH_engine.json")
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the machine-readable report here (pass an empty string to skip).")
  in
  let metrics_arg =
    Arg.(
      value
      & flag
      & info [ "metrics" ]
          ~doc:
            "Record per-worker queue-wait and job-latency histograms (one job \
             per cell) and print them (plus the merged aggregate) after the \
             sweep.")
  in
  let action families algos ks jobs n depth repeats seed out metrics =
    let split_csv s = String.split_on_char ',' s |> List.map String.trim in
    let ks =
      List.map
        (fun s ->
          match int_of_string_opt s with
          | Some k when k >= 1 -> k
          | _ -> die "bad robot count: %s" s)
        (split_csv ks)
    in
    (* Bad names are warned about here but still swept: the engine contains
       each failing cell as an Error result, so the sweep reports per-cell
       warnings and exits 1 instead of aborting the whole batch. *)
    let algos = split_csv algos in
    List.iter
      (fun a ->
        match Algo_registry.find a with
        | Some e when (Algo_registry.caps e).Algo_registry.tree -> ()
        | _ ->
            Printf.eprintf "warning: unknown algorithm %S (of: %s)\n" a
              (names Algo_registry.tree_names))
      algos;
    let families = split_csv families in
    List.iter
      (fun f ->
        if not (List.mem f World_registry.tree_names) then
          Printf.eprintf "warning: unknown tree world %S (of: %s)\n" f
            (names World_registry.tree_names))
      families;
    (* One spec per (family, algo, k) cell, standing for its [repeats]
       consecutive seeds: the engine runs each cell as one seed batch. *)
    let cells =
      Array.of_list
        (List.concat_map
           (fun family ->
             List.concat_map
               (fun algo ->
                 List.map
                   (fun k ->
                     Scenario.make ~algo ~k ~seed ~batch_seeds:repeats
                       (Scenario.generated ~family ~n ~depth_hint:depth))
                   ks)
               algos)
           families)
    in
    Printf.eprintf
      "sweep: %d jobs as %d seed batches on %d worker(s) (%d core(s))\n%!"
      (Array.length cells * repeats) (Array.length cells) jobs
      (Domain.recommended_domain_count ());
    (* One registry per worker: each worker domain records its own
       latency histograms without locking; merged after the drain. *)
    let worker_regs =
      if metrics then Array.init (max 1 jobs) (fun _ -> Metrics.create ())
      else [||]
    in
    let probe =
      if metrics then Probe.pool_probe worker_regs else Probe.noop
    in
    let t0 = Batch.now () in
    (* The probe times whole cells on the workers. Seed_batch.run gets none:
       an enabled probe would disable its identical-lane collapse. *)
    let reports =
      Batch.map ~probe ~workers:jobs
        ~progress:(fun ~completed ~total ->
          if completed mod 5 = 0 || completed = total then
            Printf.eprintf "\r  %d/%d cells%!" completed total)
        Seed_batch.run cells
    in
    Printf.eprintf "\n%!";
    let wall = Batch.now () -. t0 in
    (* Each lane's (unbatched spec, outcome), in seed order within each
       cell: by the batch determinism oracle, the rows a job-per-seed run
       would give. The table, aggregate and report below read these. *)
    let results =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun i report ->
                List.init repeats (fun l ->
                    ( Scenario.unbatch cells.(i) l,
                      Result.map
                        (fun r -> r.Seed_batch.outcomes.(l))
                        report )))
              reports))
    in
    let t =
      Table.create
        ~caption:"one row per (family, algo, k): rounds over the repeat seeds"
        [
          ("family", Table.Left); ("algo", Table.Left); ("k", Table.Right);
          ("runs", Table.Right); ("n", Table.Right); ("D", Table.Right);
          ("rounds p50", Table.Right); ("rounds max", Table.Right);
          ("explored", Table.Left);
        ]
    in
    (* Collapse the repeat seeds of each cell into one row; results are in
       input order, so consecutive chunks of [repeats] share a cell. *)
    let rec chunks = function
      | [] -> []
      | l ->
          let rec take i acc = function
            | x :: tl when i < repeats -> take (i + 1) (x :: acc) tl
            | rest -> (List.rev acc, rest)
          in
          let c, rest = take 0 [] l in
          c :: chunks rest
    in
    List.iter
      (fun cell ->
        match cell with
        | [] -> ()
        | ((job : Scenario.t), _) :: _ ->
            let outcomes =
              List.filter_map (fun (_, r) -> Result.to_option r) cell
            in
            let errors = List.length cell - List.length outcomes in
            if errors > 0 then
              Printf.eprintf "warning: %d failed job(s) in cell %s\n" errors
                (Scenario.describe job);
            let rounds =
              Array.of_list
                (List.map
                   (fun (o : Scenario.outcome) -> float_of_int o.result.rounds)
                   outcomes)
            in
            if Array.length rounds > 0 then begin
              let s = Bfdn_util.Stats.summarize rounds in
              let o = List.hd outcomes in
              Table.add_row t
                [
                  Scenario.instance_label job;
                  job.algo; Table.fint job.k;
                  Table.fint (Array.length rounds); Table.fint o.n;
                  Table.fint o.depth; Table.ffloat ~decimals:0 s.p50;
                  Table.ffloat ~decimals:0 s.max;
                  Table.fbool
                    (List.for_all (fun (o : Scenario.outcome) -> o.result.explored)
                       outcomes);
                ]
            end)
      (chunks results);
    Table.print t;
    let agg = Batch.aggregate results in
    Printf.printf "%d jobs (%d errors) in %.2fs — %.1f jobs/s on %d worker(s)\n"
      agg.jobs agg.errors wall
      (float_of_int agg.jobs /. Float.max 1e-9 wall)
      jobs;
    if metrics then begin
      let merged = Metrics.create () in
      Array.iteri
        (fun w reg ->
          Metrics.merge_into ~into:merged reg;
          match Metrics.find_histogram reg "job_s" with
          | Some h when Metrics.hist_count h > 0 ->
              Printf.printf "%s\n"
                (Sink.dashboard ~title:(Printf.sprintf "worker %d" w) reg)
          | _ -> ())
        worker_regs;
      Printf.printf "%s\n" (Sink.dashboard ~title:"sweep metrics (merged)" merged)
    end;
    (match out with
    | Some path when path <> "" ->
        writing "--out" path (fun () ->
            Report.write ~path
              (Report.of_sweep ~label:"bfdn-explore sweep" ~workers:jobs ~seed
                 ~wall results));
        Printf.printf "report written to %s\n" path
    | _ -> ());
    if agg.errors > 0 then exit 1
  in
  let term =
    Term.(
      const action $ families_arg $ algos_arg $ ks_arg $ jobs_arg $ n $ depth
      $ repeats $ seed_arg $ out $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run every (family, algo, k) cell over its repeat seeds — one seed \
          batch per cell on the parallel engine — and report round \
          distributions.")
    term

(* ---- game ---- *)

let game_cmd =
  let module U = Bfdn.Urn_game in
  let delta =
    Arg.(value & opt int 0 & info [ "delta" ] ~docv:"DELTA" ~doc:"Urn threshold Δ (default: k).")
  in
  let adversary =
    Arg.(
      value
      & opt (enum (List.map (fun (a, _) -> (a, a)) U.adversaries)) "greedy"
      & info [ "adversary" ] ~docv:"ADV"
          ~doc:
            (Printf.sprintf "Adversary: %s."
               (names (List.map fst U.adversaries))))
  in
  let action k delta adversary seed =
    let delta = if delta <= 0 then k else delta in
    let adv = U.adversary_of_name ~rng:(Rng.create seed) adversary in
    let steps = U.play (U.create ~delta ~k) adv U.player_least_loaded in
    Printf.printf "k=%d Δ=%d adversary=%s: game over after %d steps\n" k delta adversary steps;
    Printf.printf "optimal adversary (DP): %d steps\n" (U.dp_value ~delta ~k);
    Printf.printf "Theorem 3 bound       : %.0f steps\n" (U.bound ~delta ~k)
  in
  let term = Term.(const action $ k_arg $ delta $ adversary $ seed_arg) in
  Cmd.v (Cmd.info "game" ~doc:"Play the Section 3 balls-in-urns game.") term

(* ---- regions ---- *)

let regions_cmd =
  let rows = Arg.(value & opt int 24 & info [ "rows" ] ~docv:"ROWS" ~doc:"Map height.") in
  let cols = Arg.(value & opt int 72 & info [ "cols" ] ~docv:"COLS" ~doc:"Map width.") in
  let argmin =
    Arg.(value & flag & info [ "argmin" ] ~doc:"Use the concrete guarantee formulas instead of the Appendix A regions.")
  in
  let action k rows cols argmin =
    let mode = if argmin then Bfdn.Regions.Argmin else Bfdn.Regions.Analytic in
    print_string (Bfdn.Regions.render (Bfdn.Regions.compute_map ~rows ~cols ~mode ~k ()))
  in
  let term = Term.(const action $ k_arg $ rows $ cols $ argmin) in
  Cmd.v (Cmd.info "regions" ~doc:"Print the Figure 1 best-guarantee region map.") term

(* ---- bounds ---- *)

let bounds_cmd =
  let n = Arg.(value & opt int 100000 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Node count.") in
  let d = Arg.(value & opt int 50 & info [ "depth" ] ~docv:"D" ~doc:"Tree depth.") in
  let delta = Arg.(value & opt int 0 & info [ "delta" ] ~docv:"DELTA" ~doc:"Max degree (default: k).") in
  let action k n d delta =
    if n < 1 then die "--nodes must be >= 1, got %d" n;
    if d < 0 || d > n - 1 then
      die "--depth must be in [0, %d] for %d node(s), got %d" (n - 1) n d;
    let delta = if delta <= 0 then k else delta in
    let module B = Bfdn.Bounds in
    let t =
      Bfdn_util.Table.create
        ~caption:(Printf.sprintf "Runtime guarantees at n=%d, D=%d, k=%d, Δ=%d:" n d k delta)
        [ ("algorithm", Bfdn_util.Table.Left); ("bound (rounds)", Bfdn_util.Table.Right) ]
    in
    let row name v = Bfdn_util.Table.add_row t [ name; Bfdn_util.Table.ffloat ~decimals:0 v ] in
    row "offline lower bound" (B.offline_lb ~n ~k ~d);
    row "offline split 2D+ceil(2(n-1)/k)" (B.offline_split ~n ~k ~d);
    row "single-robot DFS" (B.dfs ~n);
    row "CTE [10] (n/log2 k + D)" (B.cte ~n ~k ~d);
    row "Yo* [13]" (B.yostar ~n ~k ~d);
    row "BFDN (Theorem 1)" (B.bfdn ~n ~k ~d ~delta);
    row "BFDN break-downs (Prop 7)" (B.bfdn_breakdown ~n ~k ~d);
    let v, ell = B.bfdn_rec_best ~n ~k ~d ~delta in
    row (Printf.sprintf "BFDN_l (Thm 10, best l=%d)" ell) v;
    Bfdn_util.Table.print t;
    let w, value = Bfdn.Regions.winner ~n ~k ~d ~delta in
    Printf.printf "best guarantee: %s (%.0f rounds)\n" (Bfdn.Regions.name w) value
  in
  let term = Term.(const action $ k_arg $ n $ d $ delta) in
  Cmd.v (Cmd.info "bounds" ~doc:"Print every guarantee formula for an instance shape.") term

(* ---- serve ---- *)

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Bind / connect address.")

let port_arg ~default =
  Arg.(
    value & opt int default
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 picks an ephemeral one).")

let serve_cmd =
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Engine pool domains, 1 to %d (0 = the recommended domain \
                count)."
               Pool.max_workers))
  in
  let queue_cap =
    Arg.(
      value & opt int Server.default_config.Server.queue_cap
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"In-flight job bound (>= 1); past it POST /run answers 429.")
  in
  let cache_cap =
    Arg.(
      value & opt int Server.default_config.Server.cache_cap
      & info [ "cache-cap" ] ~docv:"N"
          ~doc:"Result-cache entries (0 disables caching).")
  in
  let timeout_s =
    Arg.(
      value & opt float Server.default_config.Server.timeout_s
      & info [ "timeout-s" ] ~docv:"SECONDS"
          ~doc:"Default per-job wall-clock timeout (> 0).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress lifecycle logging.")
  in
  let log_level =
    Arg.(
      value & opt string "info"
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Minimum log severity: debug, info, warn or error.")
  in
  let postmortem_dir =
    Arg.(
      value & opt (some string) None
      & info [ "postmortem-dir" ] ~docv:"DIR"
          ~doc:
            "Write a postmortem bundle (spec, metrics, trace frames, span \
             tree) here for every failed, timed-out or robot-losing job.")
  in
  let span_log =
    Arg.(
      value & opt (some string) None
      & info [ "span-log" ] ~docv:"FILE"
          ~doc:"Append every finished span to this JSONL file.")
  in
  let no_trace =
    Arg.(
      value & flag
      & info [ "no-trace" ]
          ~doc:"Disable per-request span recording (tracing hooks no-op).")
  in
  let action host port workers queue_cap cache_cap timeout_s quiet log_level
      postmortem_dir span_log no_trace =
    (* Range checks come first: a bad flag must end before a file is
       opened or a socket bound. *)
    if workers < 0 || workers > Pool.max_workers then
      die "--workers must be in [0, %d] (0 = the recommended domain count), \
           got %d"
        Pool.max_workers workers;
    let workers =
      if workers = 0 then Server.default_config.Server.workers else workers
    in
    let queue_cap = positive ~flag:"--queue-cap" queue_cap in
    if cache_cap < 0 then die "--cache-cap must be >= 0, got %d" cache_cap;
    if not (timeout_s > 0. && Float.is_finite timeout_s) then
      die "--timeout-s must be a positive number of seconds, got %g" timeout_s;
    let level =
      match Log.level_of_name log_level with
      | Some l -> l
      | None ->
          die "--log-level must be debug, info, warn or error, got %S" log_level
    in
    (* Stderr is itself a JSONL stream: one log object per line, which
       [explore tail] renders back into readable text. *)
    let log =
      if quiet then Log.ignore_log
      else
        Log.create ~level (fun j ->
            Printf.eprintf "%s\n%!" (Json.to_string j))
    in
    let span_sink =
      Option.map
        (fun file ->
          let oc =
            writing "--span-log" file (fun () ->
                open_out_gen [ Open_append; Open_creat ] 0o644 file)
          in
          at_exit (fun () -> close_out_noerr oc);
          let m = Mutex.create () in
          fun j ->
            Mutex.lock m;
            Sink.write_jsonl oc j;
            flush oc;
            Mutex.unlock m)
        span_log
    in
    let config =
      {
        Server.host;
        port;
        workers;
        queue_cap;
        cache_cap;
        timeout_s;
        log;
        trace = not no_trace;
        span_sink;
        postmortem_dir;
      }
    in
    let server = Server.create config in
    let stop _ = Server.stop server in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Server.run server
  in
  let term =
    Term.(
      const action $ host_arg $ port_arg ~default:8080 $ workers $ queue_cap
      $ cache_cap $ timeout_s $ quiet $ log_level $ postmortem_dir $ span_log
      $ no_trace)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scenario-execution HTTP service: POST /run executes specs \
          on the parallel engine with admission control and a fingerprint \
          result cache; SIGTERM drains gracefully.")
    term

let submit_cmd =
  let spec_file =
    Arg.(
      required
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE" ~doc:"Scenario spec JSON file to submit.")
  in
  let no_wait =
    Arg.(
      value & flag
      & info [ "no-wait" ]
          ~doc:"Submit asynchronously (wait=0) and print the job ticket.")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "After an asynchronous submit, follow GET /jobs/:id/stream and \
             print each trace frame as it arrives.")
  in
  let action host port spec_file no_wait stream =
    let body =
      let ic = open_in_bin spec_file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let path = if no_wait || stream then "/run?wait=0" else "/run" in
    match Client.request ~host ~port ~body ~meth:"POST" ~path () with
    | Error msg -> die "submit failed: %s" msg
    | Ok resp ->
        print_endline resp.Client.body;
        if stream && resp.Client.status = 202 then begin
          let id =
            match Json.of_string resp.Client.body with
            | Ok j -> (
                match Json.member "id" j with
                | Some (Json.Int id) -> id
                | _ -> die "no job id in response")
            | Error e -> die "%s" e
          in
          match
            Client.request ~host ~port ~meth:"GET"
              ~path:(Printf.sprintf "/jobs/%d/stream" id)
              ~on_chunk:print_string ()
          with
          | Ok _ -> ()
          | Error msg -> die "stream failed: %s" msg
        end
        else if resp.Client.status >= 400 then exit 1
  in
  let term =
    Term.(
      const action $ host_arg $ port_arg ~default:8080 $ spec_file $ no_wait
      $ stream)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "POST a scenario spec to a running service and print the response \
          (optionally following the live JSONL trace stream).")
    term

(* ---- tail ---- *)

let tail_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"JSONL file of observability records (any kind, mixed).")
  in
  let follow =
    Arg.(
      value & flag
      & info [ "follow"; "f" ]
          ~doc:"Keep the file open and print records as they are appended.")
  in
  let timeline =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:
            "After the per-record lines, render an ASCII span timeline of \
             every span record in the file.")
  in
  let action file follow timeline =
    let spans = ref [] in
    let emit line =
      let line = String.trim line in
      if line <> "" then
        match Json.of_string line with
        | Error _ -> print_endline line
        | Ok j ->
            if Sink.kind_of j = Some Sink.Span then spans := j :: !spans;
            print_endline (Tail.render_line j)
    in
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec drain () =
          match input_line ic with
          | line ->
              emit line;
              drain ()
          | exception End_of_file -> ()
        in
        drain ();
        if follow then begin
          (* Poll for appended lines; [input_line] raising EOF leaves
             the channel positioned to retry once more data lands. *)
          let stop = ref false in
          Sys.set_signal Sys.sigint
            (Sys.Signal_handle (fun _ -> stop := true));
          while not !stop do
            match input_line ic with
            | line -> emit line
            | exception End_of_file -> Unix.sleepf 0.2
          done
        end;
        if timeline then begin
          let s = Tail.span_timeline (List.rev !spans) in
          if s <> "" then print_string s
        end)
  in
  let term = Term.(const action $ file $ follow $ timeline) in
  Cmd.v
    (Cmd.info "tail"
       ~doc:
         "Pretty-print an observability JSONL file (trace frames, spans, \
          log lines, stream rows, status lines) as aligned text, \
          optionally following appends like tail -f.")
    term

(* ---- promlint ---- *)

let promlint_cmd =
  let file =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Exposition document to check (defaults to stdin).")
  in
  let action file =
    let body =
      match file with
      | Some f ->
          let ic = open_in_bin f in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
      | None -> In_channel.input_all stdin
    in
    match Prometheus.validate body with
    | Ok () -> print_endline "OK"
    | Error msg ->
        Printf.eprintf "invalid exposition: %s\n" msg;
        exit 1
  in
  let term = Term.(const action $ file) in
  Cmd.v
    (Cmd.info "promlint"
       ~doc:
         "Validate a Prometheus text exposition document (as served by \
          /metrics?format=prometheus) against the 0.0.4 format.")
    term

let () =
  let doc = "Collaborative tree exploration with Breadth-First Depth-Next (BFDN)." in
  let info = Cmd.info "bfdn-explore" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; sweep_cmd; list_cmd; serve_cmd; submit_cmd; game_cmd;
            regions_cmd; bounds_cmd; tail_cmd; promlint_cmd;
          ]))
