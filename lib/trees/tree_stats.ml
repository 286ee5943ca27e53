type t = {
  n : int;
  edges : int;
  depth : int;
  max_degree : int;
  leaves : int;
  avg_branching : float;
}

(* Streaming accumulator: one [add] per node, O(1) state, no tree
   required. Lazily materialized worlds feed it at reveal/promise time so
   the huge scale tier reports instance statistics without ever holding a
   materialized tree (see DESIGN.md §5.14). *)
module Acc = struct
  type acc = {
    mutable a_n : int;
    mutable a_depth : int;
    mutable a_max_degree : int;
    mutable a_leaves : int;
    mutable a_internal : int;
    mutable a_child_total : int;
  }

  let create () =
    {
      a_n = 0;
      a_depth = 0;
      a_max_degree = 0;
      a_leaves = 0;
      a_internal = 0;
      a_child_total = 0;
    }

  let add acc ~depth ~children =
    acc.a_n <- acc.a_n + 1;
    if depth > acc.a_depth then acc.a_depth <- depth;
    (* Degree counts the parent edge for every non-root node. *)
    let degree = children + if depth = 0 then 0 else 1 in
    if degree > acc.a_max_degree then acc.a_max_degree <- degree;
    if children = 0 then acc.a_leaves <- acc.a_leaves + 1
    else begin
      acc.a_internal <- acc.a_internal + 1;
      acc.a_child_total <- acc.a_child_total + children
    end

  let stats acc =
    {
      n = acc.a_n;
      edges = max 0 (acc.a_n - 1);
      depth = acc.a_depth;
      max_degree = acc.a_max_degree;
      leaves = acc.a_leaves;
      avg_branching =
        (if acc.a_internal = 0 then 0.0
         else float_of_int acc.a_child_total /. float_of_int acc.a_internal);
    }
end

(* One pass over the flat representation: n, D, Δ, leaves and branching
   all come from a single scan of the CSR offsets and the depth array
   (the previous version walked the tree three times — once here, once
   for [Tree.depth], once for [Tree.max_degree]). *)
let compute tree =
  let acc = Acc.create () in
  Tree.iter_nodes tree (fun v ->
      Acc.add acc ~depth:(Tree.depth_of tree v)
        ~children:(Tree.num_children tree v));
  Acc.stats acc

let pp ppf s =
  Format.fprintf ppf "n=%d D=%d Δ=%d leaves=%d branching=%.2f" s.n s.depth
    s.max_degree s.leaves s.avg_branching
