(* Workload inputs. Every spec is built as wire JSON from the benchmark
   seed and decoded with [Scenario.of_string], exactly as a spec file or
   a [POST /run] body would be; the program under test only ever sees
   the generated specs. *)

module Json = Bfdn_obs.Json

let default_seed = 20230619

(* [Smoke] is the tiny configuration run under [dune runtest]. *)
type size = Full | Smoke

(* splitmix64: a spec seed per (benchmark seed, index), so one --seed
   fixes every input and neighbouring indices are unrelated. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let derive seed i =
  Int64.to_int
    (Int64.shift_right_logical
       (mix64
          (Int64.add (Int64.of_int seed)
             (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (i + 1)))))
       34)

(* ---- wire JSON ---- *)

let named name params = Json.Obj [ ("name", Json.String name); ("params", Json.Obj params) ]

let wire ?(version = 1) ?(extra = []) ~instance ~algo ?(algo_params = []) ~k ~seed () =
  Json.to_string
    (Json.Obj
       ([ ("schema_version", Json.Int version); instance; ("algo", named algo algo_params) ]
       @ extra
       @ [ ("k", Json.Int k); ("seed", Json.Int seed); ("metrics", Json.Bool false) ]))

let tree ?(params = []) family ~n ~depth =
  ("world", named family ([ ("depth_hint", Json.Int depth); ("n", Json.Int n) ] @ params))

(* ---- sweep: what `explore sweep` runs with its defaults ----

   The defaults of `explore sweep` (bin/explore.ml): families
   random,comb,trap; algos bfdn,cte; k 1,8,64; n 5000; depth 20; 3
   repeats, whose seeds are base, base+1, base+2 in every cell. The smoke
   size keeps the shape at toy scale. *)

type sweep_cells = { families : string list; ks : int list; n : int; depth : int; repeats : int }

let sweep_cells = function
  | Full -> { families = [ "random"; "comb"; "trap" ]; ks = [ 1; 8; 64 ]; n = 5000; depth = 20; repeats = 3 }
  | Smoke -> { families = [ "random"; "comb"; "trap" ]; ks = [ 1; 8 ]; n = 300; depth = 8; repeats = 2 }

let algos = [ "bfdn"; "cte" ]

(* (family, algo, k) in the order `explore sweep` lists its cells. *)
let cells c =
  List.concat_map
    (fun family -> List.concat_map (fun algo -> List.map (fun k -> (family, algo, k)) c.ks) algos)
    c.families

let sweep_base seed = derive seed 1

(* The specs of runs that are not tree cells, taken from the repository:
   the committed examples/*.json (CI runs each one) and the thick-comb
   duel of examples/adaptive_adversary.ml. Only their seeds come from the
   benchmark seed. They cover every Scenario.run path besides the tree
   round loop: graph, async, fault-tolerant and adversarial. *)
let example_specs seed =
  let seed i = derive seed (100 + i) in
  [
    wire ~version:2
      ~instance:(tree "comb" ~n:200 ~depth:8)
      ~algo:"bfdn-async"
      ~algo_params:[ ("speed_spread", Json.Float 0.5) ]
      ~k:6 ~seed:(seed 0) ();
    wire ~instance:(tree "comb" ~n:400 ~depth:15) ~algo:"bfdn" ~k:8 ~seed:(seed 1) ();
    wire
      ~extra:[ ("faults", Json.Obj [ ("crashes", Json.String "1@8,3@20+25") ]) ]
      ~instance:(tree "comb" ~n:300 ~depth:20)
      ~algo:"bfdn"
      ~algo_params:[ ("fault_tolerant", Json.Bool true) ]
      ~k:8 ~seed:(seed 2) ();
    wire ~version:2
      ~instance:
        ("world", named "grid" [ ("height", Json.Int 6); ("obstacles", Json.Int 3); ("width", Json.Int 10) ])
      ~algo:"bfdn-graph" ~k:6 ~seed:(seed 3) ();
    wire ~instance:(tree "hidden-path" ~n:600 ~depth:12) ~algo:"cte" ~k:16 ~seed:(seed 4) ();
    wire
      ~instance:("adversary", named "thick-comb" [ ("capacity", Json.Int 3000); ("depth_budget", Json.Int 1000) ])
      ~algo:"bfdn" ~k:32 ~seed:(seed 5) ();
  ]

let sweep size seed =
  let c = sweep_cells size in
  let base = sweep_base seed in
  List.concat_map
    (fun (family, algo, k) ->
      List.init c.repeats (fun r -> wire ~instance:(tree family ~n:c.n ~depth:c.depth) ~algo ~k ~seed:(base + r) ()))
    (cells c)
  @ example_specs seed

(* ---- seed-batch: `explore sweep --seed-batch`, one batched spec per
   cell, its lanes the cell's repeat seeds ---- *)

let seed_batch size seed =
  let c = sweep_cells size in
  List.map
    (fun (family, algo, k) ->
      wire ~version:2
        ~extra:[ ("batch", Json.Obj [ ("seeds", Json.Int c.repeats) ]) ]
        ~instance:(tree family ~n:c.n ~depth:c.depth)
        ~algo ~k ~seed:(sweep_base seed) ())
    (cells c)

(* ---- serve: distinct bfdn/random specs behind a Zipf request trace ----

   The specs have the size and robot count of the service benchmark E18
   (bench/e_serve.ml: n = 2000, k = 8). The request mix is an assumption,
   not taken from any request log: a trace of 1000 Zipf(1.0) draws over
   640 specs, replayed over and over. The trace touches 285 distinct
   specs, more than the server's default 256-entry LRU holds, so every
   replay interleaves hits with misses (engine runs that write to the
   cache): 817 hits and 183 misses. After one replay the LRU is in the
   state every later replay starts from, so every replay does the same
   work. *)

let serve_specs = function Full -> 640 | Smoke -> 32

(* The server's cache capacity: the default at full size; at smoke size
   small enough that the tiny trace still misses. *)
let serve_cache_cap = function Full -> 256 | Smoke -> 12

let serve size seed =
  let n = match size with Full -> 2000 | Smoke -> 300 in
  List.init (serve_specs size) (fun i ->
      wire ~instance:(tree "random" ~n ~depth:25) ~algo:"bfdn" ~k:8 ~seed:(derive seed (5000 + i)) ())

(* Zipf(s = 1.0) over [m] ranks; rank r is spec r. [sample u] maps a
   uniform [u] in [0, 1) to a spec index. *)
let zipf m =
  let cdf = Array.make m 0. in
  let acc = ref 0. in
  for r = 0 to m - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  let total = !acc in
  fun u ->
    let x = u *. total in
    let lo = ref 0 and hi = ref (m - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo

(* A deterministic uniform stream in [0, 1). *)
let uniform_stream seed =
  let state = ref (Int64.of_int (derive seed 90_000)) in
  fun () ->
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    Int64.to_float (Int64.shift_right_logical (mix64 !state) 11) /. 9007199254740992.

(* The request trace: spec indices (Zipf ranks), one per POST /run. It
   is the same for every seed, so every seed's replay has the same hits
   and misses (over ten seeds, a per-seed trace gave 156 to 208 misses
   per replay); the seed picks the specs behind the ranks. *)
let serve_trace size =
  let length = match size with Full -> 1000 | Smoke -> 64 in
  let zipf = zipf (serve_specs size) and u = uniform_stream default_seed in
  Array.init length (fun _ -> zipf (u ()))

(* ---- big-run: one huge lazily generated world per fresh process: the
   first configuration of the huge-tier benchmark E19 (bench/e_huge.ml:
   binary, depth_hint 20, n = 10^6, k = 1024, scale=lazy) ---- *)

let big_run size seed =
  let n, k = match size with Full -> (1_000_000, 1024) | Smoke -> (10_000, 64) in
  wire
    ~instance:(tree ~params:[ ("scale", Json.String "lazy") ] "binary" ~n ~depth:20)
    ~algo:"bfdn" ~k ~seed:(derive seed 7) ()
