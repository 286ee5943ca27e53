let fi = float_of_int

(* Exact natural log with log(1) = 0 — theorem formulas must stay upper
   bounds even at k = 1 or delta = 1. *)
let log0 x = if x <= 1.0 then 0.0 else log x

(* Clamped variant for the comparison formulas (CTE, Yo-star) that divide
   by iterated logs. *)
let log_safe x = log (Float.max 2.0 x)

(* Every one of the n - 1 edges is crossed twice, by some robot. *)
let offline_lb ~n ~k ~d =
  Float.max (fi (Bfdn_util.Mathx.ceil_div (2 * (n - 1)) k)) (2.0 *. fi d)

(* Each robot walks to its segment of the Euler tour (at most D), covers
   at most ceil(2(n-1)/k) tour steps and walks back (at most D). *)
let offline_split ~n ~k ~d =
  fi ((2 * d) + Bfdn_util.Mathx.ceil_div (2 * (n - 1)) k)

let dfs ~n = 2.0 *. fi (n - 1)

let bfdn ~n ~k ~d ~delta =
  (2.0 *. fi n /. fi k)
  +. (fi d *. fi d *. (Float.min (log0 (fi k)) (log0 (fi delta)) +. 3.0))

let bfdn_writeread = bfdn

let bfdn_breakdown ~n ~k ~d =
  (2.0 *. fi n /. fi k) +. (fi d *. fi d *. (log0 (fi k) +. 3.0))

let bfdn_graph ~n_edges ~k ~d ~delta = bfdn ~n:n_edges ~k ~d ~delta

let bfdn_rec ~n ~k ~d ~delta ~ell =
  let lf = fi ell in
  (4.0 *. fi n /. (fi k ** (1.0 /. lf)))
  +. ((2.0 ** (lf +. 1.0))
      *. (lf +. 1.0 +. Float.min (log0 (fi delta)) (log0 (fi k) /. lf))
      *. (fi d ** (1.0 +. (1.0 /. lf))))

let bfdn_rec_best ~n ~k ~d ~delta =
  let lmax =
    let lk = log_safe (fi k) in
    max 1 (int_of_float (lk /. Float.max 1.0 (log lk)))
  in
  let rec best ell acc =
    if ell > lmax then acc
    else begin
      let v = bfdn_rec ~n ~k ~d ~delta ~ell in
      let acc = match acc with (bv, _) when bv <= v -> acc | _ -> (v, ell) in
      best (ell + 1) acc
    end
  in
  best 2 (bfdn_rec ~n ~k ~d ~delta ~ell:1, 1)

let cte ~n ~k ~d =
  if k <= 1 then dfs ~n
  else (fi n /. (log_safe (fi k) /. log 2.0)) +. fi d

let yostar ~n ~k ~d =
  let loglogk = log_safe (log_safe (fi k)) in
  (2.0 ** sqrt (log_safe (fi d) *. loglogk))
  *. log_safe (fi k)
  *. (log_safe (fi n) +. log_safe (fi k))
  *. ((fi n /. fi k) +. fi d)

let urn_game ~delta ~k =
  (fi k *. Float.min (log0 (fi delta)) (log0 (fi k))) +. (2.0 *. fi k)

let lower_bound_k_eq_n ~d = fi d *. fi d /. 16.0
