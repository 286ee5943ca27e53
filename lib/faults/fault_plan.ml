module Rng = Bfdn_util.Rng

type mask =
  | No_mask
  | Rotating of int
  | Random of float
  | Half
  | Solo

type t = {
  k : int;
  seed : int;
  crash_at : int array;
  restart_at : int array;
  drop_writes : float;
  mask : mask;
}

(* Pure per-(round, robot) coin: a SplitMix64-style finalizer chain over
   (seed, salt, round, robot). No state, no allocation — the same slot
   always answers the same, however many times and from wherever it is
   asked (Env.allowed during select, Env.apply later the same round). *)
let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let coin ~seed ~salt ~round ~robot p =
  p > 0.0
  &&
  let z = mix64 (Int64.add (Int64.of_int seed) golden_gamma) in
  let z = mix64 (Int64.add z (Int64.mul golden_gamma (Int64.of_int (salt + 1)))) in
  let z = mix64 (Int64.add z (Int64.mul golden_gamma (Int64.of_int (round + 1)))) in
  let z = mix64 (Int64.add z (Int64.mul golden_gamma (Int64.of_int (robot + 1)))) in
  let u = Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0 in
  u < p

let salt_mask = 1
let salt_drop = 2

let check_k k = if k < 1 then invalid_arg "Fault_plan: k must be >= 1"

let none ~k =
  check_k k;
  {
    k;
    seed = 0;
    crash_at = Array.make k max_int;
    restart_at = Array.make k max_int;
    drop_writes = 0.0;
    mask = No_mask;
  }

let check_mask = function
  | Rotating m when m < 2 ->
      invalid_arg "Fault_plan: rotating mask period must be >= 2"
  | Random p when p < 0.0 || p > 1.0 ->
      invalid_arg "Fault_plan: random mask probability must be in [0, 1]"
  | _ -> ()

let check_drops p =
  if p < 0.0 || p >= 1.0 then
    invalid_arg "Fault_plan: drop_writes must be in [0, 1)"

let make ?(drop_writes = 0.0) ?(mask = No_mask) ?(seed = 0) ~k crashes =
  check_k k;
  check_mask mask;
  check_drops drop_writes;
  let t = { (none ~k) with seed; drop_writes; mask } in
  List.iter
    (fun (robot, round, restart) ->
      if robot < 0 || robot >= k then
        invalid_arg "Fault_plan.make: robot out of range";
      if round < 1 then invalid_arg "Fault_plan.make: crash round must be >= 1";
      if restart < -1 then
        invalid_arg "Fault_plan.make: restart delay must be >= -1";
      t.crash_at.(robot) <- round;
      t.restart_at.(robot) <-
        (if restart < 0 then max_int else round + max 1 restart))
    crashes;
  t

let random ~rng ~k ~rate ~window ~restart ?(drop_writes = 0.0) ?(mask = No_mask)
    () =
  check_k k;
  check_mask mask;
  check_drops drop_writes;
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "Fault_plan.random: rate must be in [0, 1]";
  if window < 1 then invalid_arg "Fault_plan.random: window must be >= 1";
  if restart < -1 then invalid_arg "Fault_plan.random: restart must be >= -1";
  let crashes = ref [] in
  for robot = 0 to k - 1 do
    if Rng.coin rng rate then
      let round = Rng.int_in rng 1 window in
      crashes := (robot, round, restart) :: !crashes
  done;
  let seed = Rng.int rng 0x40000000 in
  make ~drop_writes ~mask ~seed ~k (List.rev !crashes)

(* ---- pure predicates ---- *)

let masked t ~round ~robot =
  match t.mask with
  | No_mask -> false
  | Rotating m -> (round + robot) mod m = 0
  | Random p -> coin ~seed:t.seed ~salt:salt_mask ~round ~robot p
  | Half -> robot >= (t.k + 1) / 2
  | Solo -> robot <> 0

let crashed t ~round ~robot =
  t.crash_at.(robot) <= round && round < t.restart_at.(robot)

let down t ~round ~robot = crashed t ~round ~robot || masked t ~round ~robot

let restarts_after t ~round ~robot =
  t.restart_at.(robot) <> max_int && t.restart_at.(robot) = round + 1

let drops_write t ~round ~robot =
  coin ~seed:t.seed ~salt:salt_drop ~round ~robot t.drop_writes

let quiet t =
  t.mask = No_mask && t.drop_writes = 0.0
  && Array.for_all (fun r -> r = max_int) t.crash_at

let survivors t =
  let n = ref 0 in
  for i = 0 to t.k - 1 do
    if t.crash_at.(i) = max_int || t.restart_at.(i) <> max_int then incr n
  done;
  !n

let stats t ~rounds =
  let crashes = ref 0 and restarts = ref 0 in
  for i = 0 to t.k - 1 do
    if t.crash_at.(i) < rounds then incr crashes;
    if t.restart_at.(i) <> max_int && t.restart_at.(i) <= rounds then
      incr restarts
  done;
  (!crashes, !restarts)

let allowed_slots t ~rounds =
  let n = ref 0 in
  for round = 0 to rounds - 1 do
    for robot = 0 to t.k - 1 do
      if not (down t ~round ~robot) then incr n
    done
  done;
  !n

let equal (a : t) b = a = b
