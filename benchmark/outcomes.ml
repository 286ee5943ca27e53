(* Outcome checks. The digest folds named fields of each outcome (not
   its JSON bytes), so an outcome that gains a member still digests the
   same; the expected digests below pin the default seed. *)

open Common
module Scenario = Bfdn_scenario.Scenario

let keys =
  [
    "rounds"; "moves"; "edge_events"; "explored"; "at_root"; "hit_round_limit";
    "replay_rounds"; "n"; "depth"; "max_degree";
  ]

type t = int array (* [keys] in order: bools as 0/1, a null replay as -1 *)

let field key j =
  match Json.member key j with
  | Some (Json.Int i) -> i
  | Some (Json.Bool b) -> Bool.to_int b
  | Some Json.Null -> -1
  | _ -> check_failed "outcome has no usable %S member" key

let of_json j : t = Array.of_list (List.map (fun key -> field key j) keys)
let of_outcome o = of_json (Scenario.outcome_to_json o)
let get key (o : t) =
  let rec idx i = function
    | [] -> invalid_arg key
    | k :: rest -> if String.equal k key then i else idx (i + 1) rest
  in
  o.(idx 0 keys)

(* FNV-1a/64 over the fields of every outcome, in order. *)
let digest (outcomes : t list) =
  let h = ref 0xcbf29ce484222325L in
  List.iter
    (Array.iter (fun v ->
         for b = 0 to 7 do
           h := Int64.mul (Int64.logxor !h (Int64.of_int ((v lsr (8 * b)) land 0xff))) 0x100000001b3L
         done))
    outcomes;
  Printf.sprintf "%016Lx" !h

(* Theorem 1: BFDN explores a tree in at most
   2n/k + D^2 (min(ln k, ln Delta) + 3) rounds. *)
let bfdn_bound ~n ~k ~d ~delta =
  let ln x = if x <= 1 then 0. else log (float_of_int x) in
  (2. *. float_of_int n /. float_of_int k)
  +. (float_of_int (d * d) *. (Float.min (ln k) (ln delta) +. 3.))

type world = Tree | Lazy_tree | Graph | Adversarial

let world (spec : Scenario.t) =
  match spec.instance with
  | Scenario.World { world; params } ->
      if List.mem world [ "grid"; "random-graph"; "layered" ] then Graph
      else if List.assoc_opt "scale" params = Some (Bfdn_scenario.Param.String "lazy") then
        Lazy_tree
      else Tree
  | Scenario.Adversarial _ -> Adversarial

(* Which checks a spec's outcome must pass, read from the spec itself. *)
type expect = { bounded : bool; k : int }

let expect (spec : Scenario.t) =
  let tree = match world spec with Tree | Lazy_tree -> true | Graph | Adversarial -> false in
  { bounded = spec.faults = [] && tree && String.equal spec.algo "bfdn"; k = spec.k }

let check ~what e (o : t) =
  if get "explored" o <> 1 then check_failed "%s: run did not explore the whole world" what;
  if get "hit_round_limit" o <> 0 then check_failed "%s: run hit its round limit" what;
  if e.bounded then begin
    let b =
      bfdn_bound ~n:(get "n" o) ~k:e.k ~d:(get "depth" o) ~delta:(get "max_degree" o)
    in
    if float_of_int (get "rounds" o) > b then
      check_failed "%s: %d rounds exceed the Theorem 1 bound %.0f" what (get "rounds" o) b
  end

(* ---- POST /run responses ----

   A 200 body carries a ["cache":"hit"] or ["cache":"miss"] marker; a hit
   must be byte-identical to the miss that filled the cache once the
   marker is normalized, so responses are compared in that form. *)

type cache = Hit | Miss

let marker = "\"cache\":\""

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let classify body =
  match find_sub body marker with
  | None -> check_failed "response without a cache marker: %s" body
  | Some i ->
      let at = i + String.length marker in
      let word w = at + String.length w <= String.length body && String.sub body at (String.length w) = w in
      if word "hit\"" then
        ( Hit,
          String.sub body 0 at ^ "miss" ^ String.sub body (at + 3) (String.length body - at - 3) )
      else if word "miss\"" then (Miss, body)
      else check_failed "unknown cache marker in %s" body

let result_fields body = of_json (member "result" (parse_json "response" body))

(* Digests of the default seed, per size and workload. A run of another
   seed prints its digest unchecked. *)
let expected = function
  | Specs.Full ->
      [
        ("sweep", "27fce28f04da66ac");
        ("seed-batch", "c5d76d2b584ae70a");
        ("serve", "23e13af663aca492");
        ("big-run", "a8deb57af50be201");
      ]
  | Specs.Smoke ->
      [
        ("sweep", "ad3bf292af49dd7f");
        ("seed-batch", "86a31c75f1dab961");
        ("serve", "7d6a4fbedf5e2a99");
        ("big-run", "7d6df041287ac3bf");
      ]

let check_digest ~size ~seed ~workload d =
  if seed = Specs.default_seed then
    match List.assoc_opt workload (expected size) with
    | Some want when String.equal want d -> ()
    | Some want -> check_failed "%s: outcome digest %s, expected %s" workload d want
    | None -> check_failed "%s: no expected digest" workload
