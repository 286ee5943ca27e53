module Env = Bfdn_sim.Env
module Tree = Bfdn_trees.Tree
module Mathx = Bfdn_util.Mathx

(* Itinerary of robot [i]: root -> start of its tour segment, the segment
   itself, then back to the root; as a node sequence. *)
let itineraries tree k =
  let tour = Array.of_list (Tree.euler_tour tree) in
  let edges = Array.length tour - 1 in
  let seg = if edges = 0 then 0 else Mathx.ceil_div edges k in
  let root = Tree.root tree in
  let down_path v = List.rev (Tree.path_to_root tree v) in
  let plan i =
    let start = min (i * seg) edges in
    let stop = min ((i + 1) * seg) edges in
    if start >= stop then [ root ]
    else begin
      let entry = down_path tour.(start) in
      let segment = Array.to_list (Array.sub tour (start + 1) (stop - start)) in
      let exit =
        match Tree.path_to_root tree tour.(stop) with
        | _ :: rest -> rest
        | [] -> []
      in
      entry @ segment @ exit
    end
  in
  Array.init k plan

let moves_of_itinerary tree nodes =
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        let step =
          if Tree.parent tree a = Some b then Env.up
          else Env.via (Tree.port_of_child tree a b)
        in
        step :: pairs rest
    | [ _ ] | [] -> []
  in
  pairs nodes

let planned_rounds tree ~k =
  Array.fold_left
    (fun acc it -> max acc (List.length it - 1))
    0 (itineraries tree k)

let make env =
  let tree = Env.oracle_tree env in
  let k = Env.k env in
  let plans =
    Array.map (fun it -> ref (moves_of_itinerary tree it)) (itineraries tree k)
  in
  let select env =
    Array.init (Env.k env) (fun i ->
        match !(plans.(i)) with
        | [] -> Env.stay
        | m :: rest ->
            plans.(i) := rest;
            m)
  in
  let finished _ = Array.for_all (fun p -> !p = []) plans in
  { Bfdn_sim.Exec_env.select; finished }
