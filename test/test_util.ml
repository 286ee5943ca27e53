(* Unit and property tests for Bfdn_util: Rng, Mathx, Stats, Table, Ascii. *)

module Rng = Bfdn_util.Rng
module Mathx = Bfdn_util.Mathx
module Stats = Bfdn_util.Stats
module Table = Bfdn_util.Table
module Ascii = Bfdn_util.Ascii

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  checkb "different seeds differ" true !differs

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 17 in
    checkb "in range" true (x >= 0 && x < 17)
  done

let test_rng_int_bounds_invalid () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_covers_values () =
  let rng = Rng.create 13 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 8) <- true
  done;
  checkb "all residues hit" true (Array.for_all Fun.id seen)

let test_rng_int_in () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.int_in rng (-5) 5 in
    checkb "in closed range" true (x >= -5 && x <= 5)
  done

let test_rng_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 3.0 in
    checkb "in range" true (x >= 0.0 && x < 3.0)
  done

let test_rng_split_independent () =
  let a = Rng.create 99 in
  let b = Rng.split a 0 in
  (* The split stream must not simply replay the parent stream. *)
  let same = ref 0 in
  for _ = 1 to 20 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  checkb "split diverges" true (!same < 3)

let test_rng_split_children_differ () =
  (* Statistical smoke test: the first outputs of children 0..31 are
     pairwise distinct, and sibling streams stay decorrelated over a
     longer prefix. *)
  let parent = Rng.create 2023 in
  let firsts = Array.init 32 (fun i -> Rng.bits64 (Rng.split parent i)) in
  let distinct = Hashtbl.create 64 in
  Array.iter (fun x -> Hashtbl.replace distinct x ()) firsts;
  checki "first outputs pairwise distinct" 32 (Hashtbl.length distinct);
  let a = Rng.split parent 0 and b = Rng.split parent 1 in
  let collisions = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bits64 a = Rng.bits64 b then incr collisions
  done;
  checki "sibling streams decorrelated" 0 !collisions

let test_rng_split_stable () =
  (* Same parent state and index must give the same child stream across
     runs (the engine's replay contract), and deriving a child must not
     advance the parent. *)
  let p1 = Rng.create 7 and p2 = Rng.create 7 in
  let c1 = Rng.split p1 3 and c2 = Rng.split p2 3 in
  for _ = 1 to 50 do
    check Alcotest.int64 "same child stream" (Rng.bits64 c1) (Rng.bits64 c2)
  done;
  (* p1 handed out a child, p2 two more: their own streams must agree. *)
  ignore (Rng.split p2 0);
  ignore (Rng.split p2 1);
  check Alcotest.int64 "parent not advanced" (Rng.bits64 p1) (Rng.bits64 p2)

let test_rng_split_negative () =
  Alcotest.check_raises "negative index" (Invalid_argument "Rng.split: negative index")
    (fun () -> ignore (Rng.split (Rng.create 1) (-1)))

let test_rng_permutation () =
  let rng = Rng.create 21 in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  checkb "is a permutation" true (sorted = Array.init 50 (fun i -> i))

let test_rng_coin_bias () =
  let rng = Rng.create 31 in
  let heads = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.coin rng 0.25 then incr heads
  done;
  checkb "bias roughly honoured" true (!heads > 2000 && !heads < 3000)

(* ---- Mathx ---- *)

let test_log2i () =
  checki "log2i 1" 0 (Mathx.log2i 1);
  checki "log2i 2" 1 (Mathx.log2i 2);
  checki "log2i 3" 1 (Mathx.log2i 3);
  checki "log2i 1024" 10 (Mathx.log2i 1024);
  checki "log2i 1025" 10 (Mathx.log2i 1025)

let test_ceil_log2 () =
  checki "ceil_log2 1" 0 (Mathx.ceil_log2 1);
  checki "ceil_log2 2" 1 (Mathx.ceil_log2 2);
  checki "ceil_log2 3" 2 (Mathx.ceil_log2 3);
  checki "ceil_log2 1024" 10 (Mathx.ceil_log2 1024);
  checki "ceil_log2 1025" 11 (Mathx.ceil_log2 1025)

let test_ceil_div () =
  checki "7/2" 4 (Mathx.ceil_div 7 2);
  checki "8/2" 4 (Mathx.ceil_div 8 2);
  checki "0/5" 0 (Mathx.ceil_div 0 5);
  checki "1/5" 1 (Mathx.ceil_div 1 5)

let test_pow () =
  checki "2^10" 1024 (Mathx.pow 2 10);
  checki "3^0" 1 (Mathx.pow 3 0);
  checki "5^3" 125 (Mathx.pow 5 3);
  checki "1^100" 1 (Mathx.pow 1 100)

let test_saturating () =
  checki "mul in range" 12 (Mathx.mul_cap 3 4);
  checki "mul saturates" max_int (Mathx.mul_cap max_int 2);
  checki "mul big saturates" max_int (Mathx.mul_cap (max_int / 2 + 1) 2);
  checki "mul zero" 0 (Mathx.mul_cap 0 max_int);
  checki "add in range" 7 (Mathx.add_cap 3 4);
  checki "add saturates" max_int (Mathx.add_cap max_int 1);
  checki "pow in range" 1024 (Mathx.pow_cap 2 10);
  checki "pow saturates" max_int (Mathx.pow_cap 2 63);
  checki "pow deep saturates" max_int (Mathx.pow_cap 10 100);
  checki "pow zero exp" 1 (Mathx.pow_cap 7 0);
  checkb "mul rejects negatives" true
    (try ignore (Mathx.mul_cap (-1) 2); false
     with Invalid_argument _ -> true)

let test_iroot () =
  checki "iroot 8 3" 2 (Mathx.iroot 8 3);
  checki "iroot 9 3" 2 (Mathx.iroot 9 3);
  checki "iroot 26 3" 2 (Mathx.iroot 26 3);
  checki "iroot 27 3" 3 (Mathx.iroot 27 3);
  checki "iroot 1 5" 1 (Mathx.iroot 1 5);
  checki "iroot 1000000 2" 1000 (Mathx.iroot 1000000 2)

let test_clamp () =
  checki "below" 2 (Mathx.clamp 2 9 0);
  checki "inside" 5 (Mathx.clamp 2 9 5);
  checki "above" 9 (Mathx.clamp 2 9 100)

let prop_iroot_exact =
  QCheck.Test.make ~name:"iroot is the exact integer root" ~count:500
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 6))
    (fun (x, l) ->
      let r = Mathx.iroot x l in
      Mathx.pow r l <= x && Mathx.pow (r + 1) l > x)

let prop_ceil_div =
  QCheck.Test.make ~name:"ceil_div matches float ceiling" ~count:500
    QCheck.(pair (int_range 0 100000) (int_range 1 1000))
    (fun (a, b) ->
      Mathx.ceil_div a b = int_of_float (ceil (float_of_int a /. float_of_int b)))

(* ---- Stats ---- *)

let test_stats_mean () =
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check (Alcotest.float 1e-9) "empty mean" 0.0 (Stats.mean [||])

let test_stats_stddev () =
  check (Alcotest.float 1e-9) "constant" 0.0 (Stats.stddev [| 5.0; 5.0; 5.0 |]);
  check (Alcotest.float 1e-6) "known" 2.0 (Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |])

let test_stats_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.percentile xs 50.0);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile xs 100.0)

let test_stats_summary () =
  let s = Stats.summarize [| 3.0; 1.0; 2.0 |] in
  checki "count" 3 s.count;
  check (Alcotest.float 1e-9) "min" 1.0 s.min;
  check (Alcotest.float 1e-9) "max" 3.0 s.max

let prop_stats_order =
  QCheck.Test.make ~name:"min <= p50 <= p95 <= max" ~count:300
    QCheck.(array_of_size Gen.(int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let s = Stats.summarize xs in
      s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.max)

let test_linear_fit () =
  let a, b = Stats.linear_fit [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  check (Alcotest.float 1e-9) "slope" 2.0 a;
  check (Alcotest.float 1e-9) "intercept" 1.0 b

let test_linear_fit_errors () =
  checkb "one point" true
    (try ignore (Stats.linear_fit [ (1.0, 1.0) ]); false
     with Invalid_argument _ -> true);
  checkb "vertical" true
    (try ignore (Stats.linear_fit [ (1.0, 1.0); (1.0, 2.0) ]); false
     with Invalid_argument _ -> true)

let prop_log_log_exponent_recovers_power =
  QCheck.Test.make ~name:"log-log fit recovers a power law" ~count:100
    QCheck.(pair (float_range 0.5 3.0) (float_range 0.1 10.0))
    (fun (e, c) ->
      let points = List.map (fun x -> (float_of_int x, c *. (float_of_int x ** e))) [ 2; 5; 10; 30; 80; 200 ] in
      Float.abs (Stats.log_log_exponent points -. e) < 0.01)

(* ---- Table ---- *)

let test_table_render () =
  let t = Table.create ~caption:"cap" [ ("a", Table.Left); ("bb", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy"; "22" ];
  let s = Table.render t in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "caption present" true (String.length s > 3 && String.sub s 0 3 = "cap");
  checkb "row content present" true (contains s "yy")

let test_table_arity () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_table_formats () =
  check Alcotest.string "fint" "42" (Table.fint 42);
  check Alcotest.string "ffloat" "3.14" (Table.ffloat ~decimals:2 3.14159);
  check Alcotest.string "fratio" "0.500" (Table.fratio 0.5);
  check Alcotest.string "fbool yes" "yes" (Table.fbool true);
  check Alcotest.string "fbool no" "NO" (Table.fbool false)

(* ---- Ascii ---- *)

let test_ascii_grid () =
  let s = Ascii.grid ~rows:2 ~cols:3 ~cell:(fun ~row ~col -> if row = col then 'x' else '.') () in
  checkb "frame present" true (String.contains s '+');
  checkb "cells present" true (String.contains s 'x')

let test_ascii_bar_chart () =
  let s = Ascii.bar_chart [ ("a", 10.0); ("b", 5.0) ] in
  checkb "bars drawn" true (String.contains s '#')

let test_ascii_legend () =
  check Alcotest.string "legend" "a = one   b = two"
    (Ascii.legend [ ('a', "one"); ('b', "two") ])

(* Weighted entries: the total stays within the budget, the least
   recently used go first, an entry heavier than the budget is handed
   back but not held, and [add] keeps the value inserted first. *)
let test_lru_weighted () =
  let module Lru = Bfdn_util.Lru in
  let c = Lru.create ~budget:10 ~weight:String.length in
  Lru.put c "a" "xxxx";
  Lru.put c "b" "xxxx";
  ignore (Lru.find c "a");
  Lru.put c "c" "xxxx";
  check Alcotest.(list string) "b evicted, not a" [ "c"; "a" ] (Lru.keys_mru c);
  checki "weight within the budget" 8 (Lru.stats c).weight;
  checkb "heavy value handed back" true
    (Lru.add c "big" "xxxxxxxxxxx" = "xxxxxxxxxxx");
  checkb "heavy value not held" false (Lru.mem c "big");
  checkb "add keeps the first value" true (Lru.add c "a" "yyyy" = "xxxx");
  checki "one eviction" 1 (Lru.stats c).evictions

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let qc t = QCheck_alcotest.to_alcotest t in
  ( "util",
    [
      tc "rng deterministic" test_rng_deterministic;
      tc "rng seed sensitivity" test_rng_seed_sensitivity;
      tc "rng int range" test_rng_int_range;
      tc "rng int invalid bound" test_rng_int_bounds_invalid;
      tc "rng int covers residues" test_rng_int_covers_values;
      tc "rng int_in" test_rng_int_in;
      tc "rng float range" test_rng_float_range;
      tc "rng split independent" test_rng_split_independent;
      tc "rng split children differ" test_rng_split_children_differ;
      tc "rng split stable across runs" test_rng_split_stable;
      tc "rng split negative index" test_rng_split_negative;
      tc "rng permutation" test_rng_permutation;
      tc "rng coin bias" test_rng_coin_bias;
      tc "mathx log2i" test_log2i;
      tc "mathx ceil_log2" test_ceil_log2;
      tc "mathx saturating caps" test_saturating;
      tc "mathx ceil_div" test_ceil_div;
      tc "mathx pow" test_pow;
      tc "mathx iroot" test_iroot;
      tc "mathx clamp" test_clamp;
      qc prop_iroot_exact;
      qc prop_ceil_div;
      tc "stats mean" test_stats_mean;
      tc "stats stddev" test_stats_stddev;
      tc "stats percentile" test_stats_percentile;
      tc "stats summary" test_stats_summary;
      qc prop_stats_order;
      tc "linear fit" test_linear_fit;
      tc "linear fit errors" test_linear_fit_errors;
      qc prop_log_log_exponent_recovers_power;
      tc "table render" test_table_render;
      tc "table arity" test_table_arity;
      tc "table formats" test_table_formats;
      tc "ascii grid" test_ascii_grid;
      tc "ascii bar chart" test_ascii_bar_chart;
      tc "ascii legend" test_ascii_legend;
      tc "lru weighted eviction and add" test_lru_weighted;
    ] )
