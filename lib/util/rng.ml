(* SplitMix64: fast, high-quality, splittable. Reference: Steele, Lea,
   Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t i =
  if i < 0 then invalid_arg "Rng.split: negative index";
  (* Child [i] is keyed on the parent's *current* state and the index, and
     the parent is not advanced: the derivation is a pure function, so the
     family of child streams is independent of the order (or concurrency)
     in which they are requested. The double mix decorrelates neighbouring
     indices beyond the single SplitMix64 finalizer. *)
  let z = Int64.add t.state (Int64.mul golden_gamma (Int64.of_int (i + 1))) in
  { state = mix64 (mix64 z) }

let equal a b = Int64.equal a.state b.state

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* [to_int] keeps the low 63 bits, whose top bit would land in OCaml's
     sign bit; clear it explicitly. *)
  let mask = Int64.to_int (bits64 t) land max_int in
  mask mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let u = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (u /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L
let coin t p = float t 1.0 < p

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
