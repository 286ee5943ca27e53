let log_nat n =
  if n <= 0 then invalid_arg "Mathx.log_nat: non-positive argument";
  log (float_of_int n)

let log2i n =
  if n < 1 then invalid_arg "Mathx.log2i: argument < 1";
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let ceil_log2 n =
  if n < 1 then invalid_arg "Mathx.ceil_log2: argument < 1";
  let f = log2i n in
  if 1 lsl f = n then f else f + 1

let ceil_div a b =
  if b <= 0 then invalid_arg "Mathx.ceil_div: non-positive divisor";
  if a < 0 then invalid_arg "Mathx.ceil_div: negative dividend";
  (a + b - 1) / b

let pow b e =
  if e < 0 then invalid_arg "Mathx.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (acc * b) (b * b) (e lsr 1)
    else go acc (b * b) (e lsr 1)
  in
  go 1 b e

let mul_cap a b =
  if a < 0 || b < 0 then invalid_arg "Mathx.mul_cap: negative factor";
  if a = 0 || b = 0 then 0
  else if a > max_int / b then max_int
  else a * b

let add_cap a b =
  if a < 0 || b < 0 then invalid_arg "Mathx.add_cap: negative addend";
  if a > max_int - b then max_int else a + b

let pow_cap b e =
  if b < 0 then invalid_arg "Mathx.pow_cap: negative base";
  if e < 0 then invalid_arg "Mathx.pow_cap: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul_cap acc b else acc in
      if e <= 1 then acc else go acc (mul_cap b b) (e lsr 1)
    end
  in
  go 1 b e

let iroot x l =
  if x < 1 then invalid_arg "Mathx.iroot: argument < 1";
  if l < 1 then invalid_arg "Mathx.iroot: order < 1";
  if l = 1 then x
  else begin
    (* Float estimate then exact adjustment. *)
    let est =
      int_of_float (Float.round (float_of_int x ** (1.0 /. float_of_int l)))
    in
    let r = ref (max 1 est) in
    while pow !r l > x do
      decr r
    done;
    while pow (!r + 1) l <= x do
      incr r
    done;
    !r
  end

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x
