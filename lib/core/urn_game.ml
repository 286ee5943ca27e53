module Rng = Bfdn_util.Rng
module Mathx = Bfdn_util.Mathx

type board = {
  delta : int;
  loads : int array;
  virgin : bool array;
  mutable steps : int;
}

let create ~delta ~k =
  if k < 1 then invalid_arg "Urn_game.create: k must be >= 1";
  if delta < 1 then invalid_arg "Urn_game.create: delta must be >= 1";
  { delta; loads = Array.make k 1; virgin = Array.make k true; steps = 0 }

let create_custom ~delta ~loads ~virgin =
  if delta < 1 then invalid_arg "Urn_game.create_custom: delta must be >= 1";
  if Array.length loads <> Array.length virgin then
    invalid_arg "Urn_game.create_custom: length mismatch";
  if Array.length loads = 0 then invalid_arg "Urn_game.create_custom: no urns";
  if Array.exists (fun l -> l < 0) loads then
    invalid_arg "Urn_game.create_custom: negative load";
  { delta; loads = Array.copy loads; virgin = Array.copy virgin; steps = 0 }

let k b = Array.length b.loads
let delta b = b.delta
let load b i = b.loads.(i)
let steps b = b.steps

let virgin_count b =
  let c = ref 0 in
  Array.iter (fun v -> if v then incr c) b.virgin;
  !c

let virgin_balls b =
  let c = ref 0 in
  Array.iteri (fun i v -> if v then c := !c + b.loads.(i)) b.virgin;
  !c

let finished b =
  let ok = ref true in
  Array.iteri (fun i v -> if v && b.loads.(i) < b.delta then ok := false) b.virgin;
  !ok

type player = board -> forbidden:int -> int
type adversary = board -> int option

let argmin_by b ~candidate ~better =
  let best = ref (-1) in
  for i = 0 to k b - 1 do
    if candidate i && (!best < 0 || better i !best) then best := i
  done;
  !best

let player_least_loaded b ~forbidden:_ =
  let virgin = argmin_by b ~candidate:(fun i -> b.virgin.(i))
      ~better:(fun i j -> b.loads.(i) < b.loads.(j)) in
  if virgin >= 0 then virgin
  else
    argmin_by b ~candidate:(fun _ -> true)
      ~better:(fun i j -> b.loads.(i) < b.loads.(j))

let player_most_loaded b ~forbidden:_ =
  let virgin = argmin_by b ~candidate:(fun i -> b.virgin.(i))
      ~better:(fun i j -> b.loads.(i) > b.loads.(j)) in
  if virgin >= 0 then virgin
  else
    argmin_by b ~candidate:(fun _ -> true)
      ~better:(fun i j -> b.loads.(i) > b.loads.(j))

let player_random rng b ~forbidden:_ =
  let virgins = ref [] in
  Array.iteri (fun i v -> if v then virgins := i :: !virgins) b.virgin;
  match !virgins with
  | [] -> Rng.int rng (k b)
  | vs -> Rng.pick rng (Array.of_list vs)

let adversary_greedy b =
  let repeat =
    argmin_by b
      ~candidate:(fun i -> (not b.virgin.(i)) && b.loads.(i) > 0)
      ~better:(fun i j -> b.loads.(i) > b.loads.(j))
  in
  if repeat >= 0 then Some repeat
  else begin
    let burn =
      argmin_by b
        ~candidate:(fun i -> b.virgin.(i) && b.loads.(i) > 0)
        ~better:(fun i j -> b.loads.(i) > b.loads.(j))
    in
    if burn >= 0 then Some burn else None
  end

let adversary_fresh_first b =
  let burn =
    argmin_by b
      ~candidate:(fun i -> b.virgin.(i) && b.loads.(i) > 0)
      ~better:(fun i j -> b.loads.(i) > b.loads.(j))
  in
  if burn >= 0 then Some burn
  else begin
    let any =
      argmin_by b ~candidate:(fun i -> b.loads.(i) > 0)
        ~better:(fun i j -> b.loads.(i) > b.loads.(j))
    in
    if any >= 0 then Some any else None
  end

let adversary_random rng b =
  let nonempty = ref [] in
  Array.iteri (fun i l -> if l > 0 then nonempty := i :: !nonempty) b.loads;
  match !nonempty with [] -> None | xs -> Some (Rng.pick rng (Array.of_list xs))

let adversaries =
  [
    ("greedy", "the optimal Lemma 4 shape: repeat non-virgin urns first");
    ("fresh-first", "always burns a virgin urn when possible (anti-greedy)");
    ("random", "uniform among non-empty urns");
  ]

let adversary_of_name ~rng name =
  match name with
  | "greedy" -> adversary_greedy
  | "fresh-first" -> adversary_fresh_first
  | "random" -> adversary_random rng
  | other -> invalid_arg ("Urn_game.adversary_of_name: unknown adversary " ^ other)

let bound ~delta ~k =
  let kf = float_of_int k in
  (kf *. Float.min (Mathx.log_nat delta) (Mathx.log_nat k)) +. (2.0 *. kf)

let step b adversary player =
  if finished b then None
  else
    match adversary b with
    | None -> None
    | Some a ->
        if b.loads.(a) <= 0 then failwith "Urn_game.step: adversary picked an empty urn";
        b.virgin.(a) <- false;
        b.loads.(a) <- b.loads.(a) - 1;
        let dest = player b ~forbidden:a in
        if dest < 0 || dest >= k b then
          failwith "Urn_game.step: player picked an invalid urn";
        b.loads.(dest) <- b.loads.(dest) + 1;
        b.steps <- b.steps + 1;
        Some (a, dest)

let play ?max_steps b adversary player =
  let limit =
    match max_steps with
    | Some m -> m
    | None -> (4 * int_of_float (bound ~delta:b.delta ~k:(k b))) + 4 * k b + 100
  in
  let continue = ref true in
  while !continue do
    if b.steps >= limit then failwith "Urn_game.play: step limit exceeded"
    else
      match step b adversary player with
      | None -> continue := false
      | Some _ -> ()
  done;
  b.steps

let render b =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i load ->
      Buffer.add_string buf
        (Printf.sprintf "urn %2d %c |%s\n" i
           (if b.virgin.(i) then 'v' else ' ')
           (String.make load '*')))
    b.loads;
  Buffer.contents buf

let dp_value ~delta ~k =
  if k < 1 then invalid_arg "Urn_game.dp_value: k must be >= 1";
  if delta < 1 then invalid_arg "Urn_game.dp_value: delta must be >= 1";
  (* r.(u).(n) = R(N = n, u): longest continuation from a balanced
     configuration with u virgin urns holding n balls in total. *)
  let r = Array.make_matrix (k + 1) (k + 1) 0 in
  for u = 1 to k do
    for n = k downto 0 do
      if (delta * u) - n > 0 then begin
        let best = ref 0 in
        if n < k then best := max !best (1 + r.(u).(n + 1));
        if n >= 1 then begin
          let hi = n - Mathx.ceil_div n u + 1 in
          let lo = n - (n / u) + 1 in
          best := max !best (1 + r.(u - 1).(hi));
          best := max !best (1 + r.(u - 1).(lo))
        end;
        r.(u).(n) <- !best
      end
    done
  done;
  r.(k).(k)
