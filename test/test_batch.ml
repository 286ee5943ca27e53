(* Tests for seed-batched execution.

   The contract under test is a determinism contract — the batch
   oracle: every lane of [Seed_batch.run] is byte-identical to the
   sequential [Scenario.run] of the unbatched lane spec, across random
   configs (QCheck), including shapes with no shared world
   (adversarial, randomized families) and drawing algorithms or faults.

   Plus the soundness premises of the identical-lane collapse: the
   deterministic-family predicate is asserted against the generators
   themselves, and the collapse flag only appears when its proof
   obligations hold. *)

module Scenario = Bfdn_scenario.Scenario
module Param = Bfdn_scenario.Param
module World_registry = Bfdn_scenario.World_registry
module Seed_batch = Bfdn_engine.Seed_batch
module Tree_gen = Bfdn_trees.Tree_gen
module Tree = Bfdn_trees.Tree
module Rng = Bfdn_util.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let gen_spec ~family ~n ~k ~seed ?(algo = "bfdn") ?(batch_seeds = 1)
    ?algo_params ?faults () =
  Scenario.make ~algo ?algo_params ?faults ~k ~seed ~batch_seeds
    (Scenario.world
       ~params:[ ("n", Param.Int n); ("depth_hint", Param.Int 8) ]
       family)

let sequential_outcomes t =
  Array.init t.Scenario.batch_seeds (fun l ->
      Scenario.run (Scenario.unbatch t l))

let check_batch_equals_sequential what t =
  let report = Seed_batch.run t in
  let seq = sequential_outcomes t in
  checki (what ^ ": lane count") t.Scenario.batch_seeds
    (Array.length report.Seed_batch.outcomes);
  Array.iteri
    (fun l o ->
      checkb
        (Printf.sprintf "%s: lane %d identical" what l)
        true
        (Scenario.equal_outcome o seq.(l)))
    report.Seed_batch.outcomes;
  report

(* ---- deterministic-family predicate vs the generators ---- *)

let test_deterministic_families () =
  List.iter
    (fun family ->
      let build seed =
        Tree_gen.of_family family ~rng:(Rng.create seed) ~n:60 ~depth_hint:5
      in
      let same = Tree.equal (build 1) (build 99) in
      checkb
        (Printf.sprintf "family %s: predicate matches generator" family)
        (Tree_gen.deterministic_family family)
        same)
    Tree_gen.families;
  checkb "unknown family is not deterministic" false
    (Tree_gen.deterministic_family "no-such-family");
  let deterministic_tree ?(params = []) world =
    match World_registry.world_source world params with
    | Ok (World_registry.Eager_tree { deterministic; _ }) -> deterministic
    | _ -> false
  in
  checkb "world predicate: eager binary" true (deterministic_tree "binary");
  checkb "world predicate: random is not" false (deterministic_tree "random");
  checkb "world predicate: lazy scale is not" false
    (deterministic_tree ~params:[ ("scale", Param.String "lazy") ] "binary");
  checkb "world predicate: graph world is not" false (deterministic_tree "grid")

(* ---- collapse: flags only when the proof obligations hold ---- *)

let test_collapse_flags () =
  (* Deterministic family + draw-free algorithm: collapses. *)
  let r =
    check_batch_equals_sequential "binary/bfdn"
      (gen_spec ~family:"binary" ~n:120 ~k:8 ~seed:5 ~batch_seeds:8 ())
  in
  checkb "binary/bfdn collapses" true r.Seed_batch.collapsed;
  checkb "binary/bfdn shares the world" true r.Seed_batch.shared_world;
  (* Randomized instance: no shared world, no collapse, still equal. *)
  let r =
    check_batch_equals_sequential "random/bfdn"
      (gen_spec ~family:"random" ~n:100 ~k:8 ~seed:6 ~batch_seeds:4 ())
  in
  checkb "random/bfdn does not share" false r.Seed_batch.shared_world;
  checkb "random/bfdn does not collapse" false r.Seed_batch.collapsed;
  (* Drawing algorithm on a deterministic family: lanes genuinely
     differ, so the draw-free proof must fail. *)
  let r =
    check_batch_equals_sequential "binary/random-walk"
      (gen_spec ~family:"binary" ~n:60 ~k:4 ~seed:7 ~batch_seeds:3
         ~algo:"random-walk" ())
  in
  checkb "random-walk does not collapse" false r.Seed_batch.collapsed;
  (* Faults: per-lane schedules differ, so no collapse even when the
     world is shared. *)
  let r =
    check_batch_equals_sequential "faulty binary/bfdn"
      (gen_spec ~family:"binary" ~n:100 ~k:8 ~seed:8 ~batch_seeds:3
         ~algo_params:[ ("fault_tolerant", Param.Bool true) ]
         ~faults:[ ("rate", Param.Float 0.2); ("restart", Param.Int 9) ]
         ())
  in
  checkb "faulty batch does not collapse" false r.Seed_batch.collapsed;
  checkb "faulty batch still shares the world" true r.Seed_batch.shared_world

let test_fallback_shapes () =
  (* Adversarial: no shared world, still lane-identical. *)
  let t =
    Scenario.make ~algo:"bfdn" ~k:4 ~seed:11 ~batch_seeds:3
      (Scenario.adversarial ~policy:"corridor" ~capacity:120 ~depth_budget:10)
  in
  let r = check_batch_equals_sequential "adversarial" t in
  checkb "adversarial shares no world" false r.Seed_batch.shared_world;
  (* Round cap: hit_round_limit lanes stay identical. *)
  let t =
    {
      (gen_spec ~family:"comb" ~n:150 ~k:2 ~seed:12 ~batch_seeds:3 ()) with
      Scenario.max_rounds = Some 17;
    }
  in
  let r = check_batch_equals_sequential "round-capped" t in
  checkb "capped lane hit the limit" true
    r.Seed_batch.outcomes.(0).Scenario.result.Bfdn_sim.Exec_env.hit_round_limit

(* ---- qcheck: batch oracle across random configs ---- *)

let batched_spec_gen =
  let open QCheck2.Gen in
  oneofl [ "binary"; "comb"; "spider"; "random"; "star"; "caterpillar" ]
  >>= fun family ->
  (* Faults only pair with fault-tolerant bfdn — the other algorithms
     don't survive crash/restart (same restriction as the fault suite). *)
  oneofl [ []; [ ("rate", Param.Float 0.15); ("restart", Param.Int 7) ] ]
  >>= fun faults ->
  (if faults <> [] then return "bfdn"
   else oneofl [ "bfdn"; "bfdn-wr"; "cte"; "dfs"; "random-walk" ])
  >>= fun algo ->
  (match algo with
  | "bfdn" ->
      oneofl [ "least-loaded"; "first-open"; "random-open" ] >>= fun p ->
      return
        (("policy", Param.String p)
        ::
        (if faults <> [] then [ ("fault_tolerant", Param.Bool true) ] else []))
  | _ -> return [])
  >>= fun algo_params ->
  int_range 1 12 >>= fun k ->
  int_range 30 150 >>= fun n ->
  int_range (-5000) 5000 >>= fun seed ->
  int_range 2 5 >>= fun batch_seeds ->
  return
    (gen_spec ~family ~n ~k ~seed ~algo ~batch_seeds ~algo_params ~faults ())

let prop_batch_equals_sequential =
  QCheck2.Test.make ~count:40 ~name:"seed batch = S sequential runs"
    ~print:Scenario.to_string batched_spec_gen (fun t ->
      let report = Seed_batch.run t in
      let seq = sequential_outcomes t in
      Array.for_all2
        (fun a b -> Scenario.equal_outcome a b)
        report.Seed_batch.outcomes seq)

(* ---- batched specs on the wire ---- *)

let test_batch_wire () =
  let plain = gen_spec ~family:"comb" ~n:90 ~k:4 ~seed:2 () in
  let batched = { plain with Scenario.batch_seeds = 16 } in
  (* batch_seeds = 1 is the plain pre-batch wire form, byte for byte. *)
  checkb "batch=1 emits no batch member" false
    (contains ~affix:"batch" (Scenario.to_string plain));
  let wire = Scenario.to_string batched in
  checkb "batch member emitted" true
    (contains ~affix:{|"batch":{"seeds":16}|} wire);
  checkb "batched spec is version 2" true
    (contains ~affix:{|"schema_version":2|} wire);
  (match Scenario.of_string wire with
  | Ok t -> checkb "round-trips" true (Scenario.equal t batched)
  | Error e -> Alcotest.failf "batched spec failed to parse: %s" e);
  checkb "distinct fingerprints" true
    (Scenario.fingerprint plain <> Scenario.fingerprint batched);
  (* Range checks and the run-side rejection. *)
  checkb "batch=0 invalid" true
    (Result.is_error (Scenario.validate { plain with Scenario.batch_seeds = 0 }));
  checkb "batch>65536 invalid" true
    (Result.is_error
       (Scenario.validate { plain with Scenario.batch_seeds = 65537 }));
  checkb "Scenario.run rejects batched specs" true
    (try
       ignore (Scenario.run batched);
       false
     with Invalid_argument _ -> true);
  (* unbatch: lane seeds and bounds. *)
  checki "lane 3 seed" (batched.Scenario.seed + 3)
    (Scenario.unbatch batched 3).Scenario.seed;
  checkb "lane out of range" true
    (try
       ignore (Scenario.unbatch batched 16);
       false
     with Invalid_argument _ -> true)

let suite =
  ( "batch",
    [
      Alcotest.test_case "deterministic families" `Quick
        test_deterministic_families;
      Alcotest.test_case "collapse flags" `Quick test_collapse_flags;
      Alcotest.test_case "fallback shapes" `Quick test_fallback_shapes;
      Alcotest.test_case "batched wire form" `Quick test_batch_wire;
      QCheck_alcotest.to_alcotest prop_batch_equals_sequential;
    ] )
