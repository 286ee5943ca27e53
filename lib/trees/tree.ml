type node = int

(* Succinct flat-array storage (CSR-style adjacency). The tree is four
   plain [int array]s — no per-node records or nested child arrays — so
   a node costs ~4 words and the whole structure is 4 large heap blocks
   whatever [n] is, which is what makes the 10^6–10^7 scale tier viable
   (the previous [node array array] representation paid one block header
   per node and roughly doubled the footprint; see DESIGN.md §5.14).

   Ports stay implicit: at a non-root node port 0 is the parent edge and
   port [p >= 1] is child [p - 1] of the CSR slice; at the root port [p]
   is child [p]. Children are stored in increasing id order (the same
   deterministic port numbering [of_parents] always produced). *)
type t = {
  root : node;
  parents : node array; (* -1 at the root *)
  child_off : int array; (* length n+1: children of v at [off.(v), off.(v+1)) *)
  child_arr : node array; (* length n-1, increasing ids per slice *)
  depths : int array;
  mutable subtree_sizes : int array option; (* computed lazily *)
}

let n t = Array.length t.parents
let num_edges t = n t - 1
let root t = t.root
let depth_of t v = t.depths.(v)
let parent t v = if v = t.root then None else Some t.parents.(v)

let num_children t v = t.child_off.(v + 1) - t.child_off.(v)
let child t v i = t.child_arr.(t.child_off.(v) + i)

let children t v =
  Array.sub t.child_arr t.child_off.(v) (num_children t v)

let iter_children t v f =
  for i = t.child_off.(v) to t.child_off.(v + 1) - 1 do
    f t.child_arr.(i)
  done

let degree t v = num_children t v + if v = t.root then 0 else 1

let num_ports = degree

let depth t = Array.fold_left max 0 t.depths

let max_degree t =
  let best = ref 0 in
  for v = 0 to n t - 1 do
    best := max !best (degree t v)
  done;
  !best

let neighbor_via_port t v p =
  let deg = degree t v in
  if p < 0 || p >= deg then invalid_arg "Tree.neighbor_via_port: bad port";
  if v = t.root then child t v p
  else if p = 0 then t.parents.(v)
  else child t v (p - 1)

let port_to_parent t v =
  if v = t.root then invalid_arg "Tree.port_to_parent: root has no parent";
  0

let port_of_child t v c =
  let cs = num_children t v in
  let rec find i =
    if i >= cs then raise Not_found
    else if child t v i = c then i + if v = t.root then 0 else 1
    else find (i + 1)
  in
  find 0

let is_ancestor t a v =
  (* Walk up from [v]; depths give a cheap cutoff. *)
  let da = t.depths.(a) in
  let rec up v = if t.depths.(v) < da then false else v = a || up t.parents.(v) in
  up v

let path_to_root t v =
  let rec collect v acc =
    if v = t.root then t.root :: acc else collect t.parents.(v) (v :: acc)
  in
  (* [collect] accumulates bottom-up, so the result reads root-first; flip it
     to get v; parent v; ...; root. *)
  List.rev (collect v [])

let iter_nodes t f =
  for v = 0 to n t - 1 do
    f v
  done

let compute_subtree_sizes t =
  match t.subtree_sizes with
  | Some s -> s
  | None ->
      let s = Array.make (n t) 1 in
      (* Children always have larger ids than nothing in general; process by
         decreasing depth instead. *)
      let order = Array.init (n t) (fun i -> i) in
      Array.sort (fun a b -> compare t.depths.(b) t.depths.(a)) order;
      Array.iter
        (fun v -> if v <> t.root then s.(t.parents.(v)) <- s.(t.parents.(v)) + s.(v))
        order;
      t.subtree_sizes <- Some s;
      s

let subtree_size t v = (compute_subtree_sizes t).(v)

let subtree_nodes t v =
  let rec go v acc =
    let acc = ref (v :: acc) in
    iter_children t v (fun c -> acc := go c !acc);
    !acc
  in
  List.rev (go v [])

let euler_tour t =
  let rec visit v acc =
    let acc = ref (v :: acc) in
    iter_children t v (fun c -> acc := v :: visit c !acc);
    !acc
  in
  (* [visit] pushes nodes in reverse visiting order. *)
  List.rev (visit t.root [])

let equal a b =
  a.root = b.root && a.parents = b.parents && a.child_off = b.child_off
  && a.child_arr = b.child_arr

let validate t =
  let size = n t in
  if size = 0 then invalid_arg "Tree.validate: empty tree";
  if t.root < 0 || t.root >= size then invalid_arg "Tree.validate: bad root";
  if t.parents.(t.root) <> -1 then
    invalid_arg "Tree.validate: root parent must be -1";
  Array.iteri
    (fun v p ->
      if v <> t.root && (p < 0 || p >= size) then
        invalid_arg "Tree.validate: parent out of range")
    t.parents;
  (* Depth consistency and acyclicity: every node must reach the root in at
     most [size] steps with depths decreasing by one. *)
  Array.iteri
    (fun v d ->
      if v = t.root then begin
        if d <> 0 then invalid_arg "Tree.validate: root depth must be 0"
      end
      else if d <> t.depths.(t.parents.(v)) + 1 then
        invalid_arg "Tree.validate: inconsistent depth")
    t.depths;
  let seen = Array.make size false in
  let rec mark v budget =
    if budget < 0 then invalid_arg "Tree.validate: cycle detected";
    if not seen.(v) then begin
      seen.(v) <- true;
      if v <> t.root then mark t.parents.(v) (budget - 1)
    end
  in
  for v = 0 to size - 1 do
    mark v size
  done;
  (* CSR adjacency must exactly mirror parents. *)
  if Array.length t.child_off <> size + 1 then
    invalid_arg "Tree.validate: bad offset length";
  if t.child_off.(0) <> 0 || t.child_off.(size) <> Array.length t.child_arr
  then invalid_arg "Tree.validate: bad offset bounds";
  if Array.length t.child_arr <> size - 1 then
    invalid_arg "Tree.validate: children/edges mismatch";
  let child_count = Array.make size 0 in
  Array.iteri
    (fun v p -> if v <> t.root then child_count.(p) <- child_count.(p) + 1)
    t.parents;
  for v = 0 to size - 1 do
    if t.child_off.(v + 1) - t.child_off.(v) <> child_count.(v) then
      invalid_arg "Tree.validate: children/parents mismatch";
    iter_children t v (fun c ->
        if c < 0 || c >= size || t.parents.(c) <> v then
          invalid_arg "Tree.validate: child with wrong parent")
  done

let of_parents ?(root = 0) parents =
  let size = Array.length parents in
  if size = 0 then invalid_arg "Tree.of_parents: empty tree";
  if root < 0 || root >= size then invalid_arg "Tree.of_parents: bad root";
  if parents.(root) <> -1 then
    invalid_arg "Tree.of_parents: parents.(root) must be -1";
  let child_off = Array.make (size + 1) 0 in
  Array.iteri
    (fun v p ->
      if v <> root then begin
        if p < 0 || p >= size then
          invalid_arg "Tree.of_parents: parent out of range";
        child_off.(p + 1) <- child_off.(p + 1) + 1
      end)
    parents;
  for v = 1 to size do
    child_off.(v) <- child_off.(v) + child_off.(v - 1)
  done;
  let child_arr = Array.make (max 0 (size - 1)) (-1) in
  let fill = Array.copy child_off in
  (* Children in increasing id order: deterministic port numbering. *)
  for v = 0 to size - 1 do
    if v <> root then begin
      let p = parents.(v) in
      child_arr.(fill.(p)) <- v;
      fill.(p) <- fill.(p) + 1
    end
  done;
  let depths = Array.make size (-1) in
  depths.(root) <- 0;
  let rec depth_of v budget =
    if budget < 0 then invalid_arg "Tree.of_parents: cycle detected";
    if depths.(v) >= 0 then depths.(v)
    else begin
      let d = depth_of parents.(v) (budget - 1) + 1 in
      depths.(v) <- d;
      d
    end
  in
  for v = 0 to size - 1 do
    ignore (depth_of v size)
  done;
  let t =
    {
      root;
      parents = Array.copy parents;
      child_off;
      child_arr;
      depths;
      subtree_sizes = None;
    }
  in
  validate t;
  t

let to_string t =
  let buf = Buffer.create (4 * n t) in
  Buffer.add_string buf (string_of_int (n t));
  Buffer.add_char buf ':';
  Array.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int p))
    t.parents;
  Buffer.contents buf

let of_string s =
  match String.index_opt s ':' with
  | None -> invalid_arg "Tree.of_string: missing size header"
  | Some colon ->
      let size =
        try int_of_string (String.trim (String.sub s 0 colon))
        with Failure _ -> invalid_arg "Tree.of_string: bad size"
      in
      let body = String.sub s (colon + 1) (String.length s - colon - 1) in
      let fields =
        List.filter (fun f -> f <> "") (String.split_on_char ' ' (String.trim body))
      in
      if List.length fields <> size then
        invalid_arg "Tree.of_string: size mismatch";
      let parents =
        Array.of_list
          (List.map
             (fun f ->
               try int_of_string f
               with Failure _ -> invalid_arg "Tree.of_string: bad parent")
             fields)
      in
      let root =
        match Array.to_list parents |> List.mapi (fun i p -> (i, p))
              |> List.find_opt (fun (_, p) -> p = -1)
        with
        | Some (i, _) -> i
        | None -> invalid_arg "Tree.of_string: no root marker"
      in
      of_parents ~root parents

let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph tree {\n";
  Array.iteri
    (fun v p ->
      if v <> t.root then Buffer.add_string buf (Printf.sprintf "  %d -> %d;\n" p v))
    t.parents;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
