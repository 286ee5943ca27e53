let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else sum xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (acc /. float_of_int n)
  end

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty array";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let linear_fit points =
  let n = float_of_int (List.length points) in
  if n < 2.0 then invalid_arg "Stats.linear_fit: need at least two points";
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
  let denom = (n *. sxx) -. (sx *. sx) in
  if denom = 0.0 then invalid_arg "Stats.linear_fit: x values are all equal";
  let a = ((n *. sxy) -. (sx *. sy)) /. denom in
  (a, (sy -. (a *. sx)) /. n)

let log_log_exponent points =
  let safe v = if v <= 0.0 then 1.0 else v in
  fst (linear_fit (List.map (fun (x, y) -> (log (safe x), log (safe y))) points))

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

let summarize xs =
  let lo, hi = min_max xs in
  {
    count = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = lo;
    max = hi;
    p50 = percentile xs 50.0;
    p95 = percentile xs 95.0;
  }
