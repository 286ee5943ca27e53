module Rng = Bfdn_util.Rng
module Mathx = Bfdn_util.Mathx

(* Hard ceiling on instance sizes. Every family constructor computes a
   saturating node-count estimate up front and rejects anything beyond
   this, so a huge-tier parameter mistake (n=10^7 with a multiplicative
   family) fails with a clear error instead of wrapping an int or dying
   inside [Array.make]. *)
let max_nodes = Sys.max_array_length

let check_size ctx est =
  if est > max_nodes then
    invalid_arg
      (Printf.sprintf "Tree_gen.%s: %s nodes requested, limit is %d" ctx
         (if est = max_int then "too many" else string_of_int est)
         max_nodes)

module Builder = struct
  type t = { mutable parents : int array; mutable size : int }

  let create () = { parents = Array.make 16 (-1); size = 1 }

  let root _ = 0

  let ensure_capacity b =
    if b.size >= Array.length b.parents then begin
      let cap = Array.length b.parents in
      if cap >= max_nodes then
        invalid_arg "Tree_gen.Builder: tree exceeds Sys.max_array_length";
      let bigger = Array.make (min max_nodes (Mathx.mul_cap 2 cap)) (-1) in
      Array.blit b.parents 0 bigger 0 b.size;
      b.parents <- bigger
    end

  let add_child b v =
    if v < 0 || v >= b.size then invalid_arg "Builder.add_child: unknown node";
    ensure_capacity b;
    let id = b.size in
    b.parents.(id) <- v;
    b.size <- b.size + 1;
    id

  let add_path b v len =
    let rec go v len = if len = 0 then v else go (add_child b v) (len - 1) in
    go v len

  let size b = b.size

  let build b = Tree.of_parents (Array.sub b.parents 0 b.size)
end

let path n =
  if n < 1 then invalid_arg "Tree_gen.path: n must be >= 1";
  check_size "path" n;
  let b = Builder.create () in
  ignore (Builder.add_path b (Builder.root b) (n - 1));
  Builder.build b

let star n =
  if n < 1 then invalid_arg "Tree_gen.star: n must be >= 1";
  check_size "star" n;
  let b = Builder.create () in
  for _ = 1 to n - 1 do
    ignore (Builder.add_child b (Builder.root b))
  done;
  Builder.build b

let complete ~arity ~depth =
  if arity < 1 then invalid_arg "Tree_gen.complete: arity must be >= 1";
  if depth < 0 then invalid_arg "Tree_gen.complete: negative depth";
  (* n = (arity^(depth+1) - 1) / (arity - 1); saturating estimate so deep
     multiplicative requests reject instead of wrapping. *)
  let est =
    if arity = 1 then depth + 1
    else
      let top = Mathx.pow_cap arity (depth + 1) in
      if top = max_int then max_int else (top - 1) / (arity - 1)
  in
  check_size "complete" est;
  let b = Builder.create () in
  let rec expand v d =
    if d < depth then
      for _ = 1 to arity do
        expand (Builder.add_child b v) (d + 1)
      done
  in
  expand (Builder.root b) 0;
  Builder.build b

let spider ~legs ~leg_len =
  if legs < 0 || leg_len < 0 then invalid_arg "Tree_gen.spider: negative size";
  check_size "spider" (Mathx.add_cap 1 (Mathx.mul_cap legs leg_len));
  let b = Builder.create () in
  for _ = 1 to legs do
    ignore (Builder.add_path b (Builder.root b) leg_len)
  done;
  Builder.build b

let caterpillar ~spine ~legs_per_node =
  if spine < 0 || legs_per_node < 0 then
    invalid_arg "Tree_gen.caterpillar: negative size";
  check_size "caterpillar"
    (Mathx.mul_cap (spine + 1) (Mathx.add_cap legs_per_node 1));
  let b = Builder.create () in
  let v = ref (Builder.root b) in
  for i = 0 to spine do
    for _ = 1 to legs_per_node do
      ignore (Builder.add_child b !v)
    done;
    if i < spine then v := Builder.add_child b !v
  done;
  Builder.build b

let comb ~spine ~tooth_len =
  if spine < 0 || tooth_len < 0 then invalid_arg "Tree_gen.comb: negative size";
  check_size "comb" (Mathx.add_cap 1 (Mathx.mul_cap spine (Mathx.add_cap tooth_len 1)));
  let b = Builder.create () in
  let v = ref (Builder.root b) in
  for _ = 1 to spine do
    ignore (Builder.add_path b !v tooth_len);
    v := Builder.add_child b !v
  done;
  Builder.build b

let broom ~handle ~bristles =
  if handle < 0 || bristles < 0 then invalid_arg "Tree_gen.broom: negative size";
  check_size "broom" (Mathx.add_cap 1 (Mathx.add_cap handle bristles));
  let b = Builder.create () in
  let tip = Builder.add_path b (Builder.root b) handle in
  for _ = 1 to bristles do
    ignore (Builder.add_child b tip)
  done;
  Builder.build b

let random_tree ~rng ~n ?max_depth () =
  if n < 1 then invalid_arg "Tree_gen.random_tree: n must be >= 1";
  check_size "random_tree" n;
  let cap = match max_depth with Some d -> d | None -> max_int in
  if cap < 0 then invalid_arg "Tree_gen.random_tree: negative max_depth";
  let parents = Array.make n (-1) in
  let depths = Array.make n 0 in
  (* Nodes at depth < cap are eligible parents; keep them in a dense array
     for O(1) uniform sampling. *)
  let eligible = Array.make n 0 in
  let num_eligible = ref (if cap > 0 then 1 else 0) in
  for v = 1 to n - 1 do
    if !num_eligible = 0 then
      invalid_arg "Tree_gen.random_tree: max_depth 0 with n > 1";
    let p = eligible.(Rng.int rng !num_eligible) in
    parents.(v) <- p;
    depths.(v) <- depths.(p) + 1;
    if depths.(v) < cap then begin
      eligible.(!num_eligible) <- v;
      incr num_eligible
    end
  done;
  Tree.of_parents parents

let random_bounded_degree ~rng ~n ~delta =
  if n < 1 then invalid_arg "Tree_gen.random_bounded_degree: n must be >= 1";
  if delta < 2 then invalid_arg "Tree_gen.random_bounded_degree: delta < 2";
  check_size "random_bounded_degree" n;
  let parents = Array.make n (-1) in
  let degree = Array.make n 0 in
  let eligible = Array.make n 0 in
  let num_eligible = ref 1 in
  let remove_at i =
    decr num_eligible;
    eligible.(i) <- eligible.(!num_eligible)
  in
  for v = 1 to n - 1 do
    let i = Rng.int rng !num_eligible in
    let p = eligible.(i) in
    parents.(v) <- p;
    degree.(p) <- degree.(p) + 1;
    degree.(v) <- 1;
    (* The root may take [delta] children; other nodes at most [delta - 1]
       (one port is the parent edge). *)
    let budget = if p = 0 then delta else delta - 1 in
    if degree.(p) - (if p = 0 then 0 else 1) >= budget then remove_at i;
    eligible.(!num_eligible) <- v;
    incr num_eligible
  done;
  Tree.of_parents parents

let random_deep ~rng ~n ~depth =
  if depth < 0 then invalid_arg "Tree_gen.random_deep: negative depth";
  if n < depth + 1 then invalid_arg "Tree_gen.random_deep: n < depth + 1";
  check_size "random_deep" n;
  let parents = Array.make n (-1) in
  let depths = Array.make n 0 in
  (* Spine of the required depth occupies nodes 0..depth. *)
  for v = 1 to depth do
    parents.(v) <- v - 1;
    depths.(v) <- v
  done;
  let eligible = Array.make n 0 in
  let num_eligible = ref 0 in
  for v = 0 to depth do
    if depths.(v) < depth then begin
      eligible.(!num_eligible) <- v;
      incr num_eligible
    end
  done;
  if depth = 0 then begin
    eligible.(0) <- 0;
    num_eligible := 1
  end;
  for v = depth + 1 to n - 1 do
    let p = eligible.(Rng.int rng !num_eligible) in
    parents.(v) <- p;
    depths.(v) <- depths.(p) + 1;
    if depths.(v) < depth then begin
      eligible.(!num_eligible) <- v;
      incr num_eligible
    end
  done;
  Tree.of_parents parents

let binary_trap ~levels ~tail =
  if levels < 0 || tail < 0 then invalid_arg "Tree_gen.binary_trap: negative size";
  check_size "binary_trap"
    (Mathx.add_cap (Mathx.add_cap 1 tail)
       (Mathx.mul_cap levels (Mathx.add_cap tail 1)));
  let b = Builder.create () in
  let v = ref (Builder.root b) in
  for _ = 1 to levels do
    ignore (Builder.add_path b !v tail);
    v := Builder.add_child b !v
  done;
  ignore (Builder.add_path b !v tail);
  Builder.build b

let hidden_path ~k ~blocks =
  if k < 1 then invalid_arg "Tree_gen.hidden_path: k must be >= 1";
  if blocks < 1 then invalid_arg "Tree_gen.hidden_path: blocks must be >= 1";
  let depth = max 1 (Mathx.ceil_log2 (max 2 k)) in
  (* Each block is a complete binary tree of 2^(depth+1)-1 nodes plus one
     chaining node. *)
  let block_sz =
    let top = Mathx.pow_cap 2 (depth + 1) in
    if top = max_int then max_int else top
  in
  check_size "hidden_path" (Mathx.add_cap 1 (Mathx.mul_cap blocks block_sz));
  let b = Builder.create () in
  (* Build one complete binary block below [v]; return one designated leaf
     (the last one) to chain the next block from. *)
  let rec expand v d last_leaf =
    if d = depth then begin
      last_leaf := v;
      ()
    end
    else begin
      expand (Builder.add_child b v) (d + 1) last_leaf;
      expand (Builder.add_child b v) (d + 1) last_leaf
    end
  in
  let attach = ref (Builder.root b) in
  for _ = 1 to blocks do
    let leaf = ref (Builder.root b) in
    expand !attach 0 leaf;
    attach := Builder.add_child b !leaf
  done;
  Builder.build b

let families =
  [
    "path"; "star"; "binary"; "ternary"; "spider"; "caterpillar"; "comb";
    "broom"; "random"; "random-deep"; "bounded3"; "trap"; "hidden-path";
  ]

(* The families whose generator never reads [rng]: [of_family] is a pure
   function of [(name, n, depth_hint)] for these, so distinct seeds of
   one spec share a single hidden tree. The batch engine relies on this
   to build (and stat) one world for a whole seed batch; the claim is
   asserted per family by a generator test. *)
let randomized_families = [ "random"; "random-deep"; "bounded3" ]

let deterministic_family name =
  let named = List.exists (String.equal name) in
  named families && not (named randomized_families)

let of_family name ~rng ~n ~depth_hint =
  let n = max 1 n in
  let d = max 1 depth_hint in
  match name with
  | "path" -> path n
  | "star" -> star n
  | "binary" -> complete ~arity:2 ~depth:(max 1 (Mathx.log2i (max 2 n)))
  | "ternary" ->
      let depth =
        (* pow_cap: the fit test stays correct (and terminates) for any n;
           plain [pow] wraps negative past 3^40 and loops forever. *)
        let rec fit depth =
          if Mathx.pow_cap 3 (depth + 1) >= n then depth else fit (depth + 1)
        in
        max 1 (fit 1)
      in
      complete ~arity:3 ~depth
  | "spider" ->
      let legs = max 1 (n / max 1 d) in
      spider ~legs ~leg_len:d
  | "caterpillar" ->
      let legs = max 1 ((n / max 1 d) - 1) in
      caterpillar ~spine:d ~legs_per_node:legs
  | "comb" ->
      let tooth = max 1 ((n / max 1 d) - 1) in
      comb ~spine:d ~tooth_len:tooth
  | "broom" -> broom ~handle:d ~bristles:(max 1 (n - d - 1))
  | "random" -> random_tree ~rng ~n ()
  | "random-deep" -> random_deep ~rng ~n:(max n (d + 1)) ~depth:d
  | "bounded3" -> random_bounded_degree ~rng ~n ~delta:3
  | "trap" ->
      let levels = max 1 (Mathx.log2i (max 2 n)) in
      binary_trap ~levels ~tail:(max 1 (n / (levels + 1)))
  | "hidden-path" ->
      let k = max 2 (n / max 1 (2 * d)) in
      hidden_path ~k ~blocks:(max 1 d)
  | other -> invalid_arg ("Tree_gen.of_family: unknown family " ^ other)
