module Env = Bfdn_sim.Env
module Partial_tree = Bfdn_sim.Partial_tree

(* Per-node whiteboard: which child ports lead to finished subtrees. *)
type board = { done_ports : bool array }

let make env =
  let view = Env.view env in
  let boards : board option array = Array.make (Env.capacity env) None in
  let board v =
    match boards.(v) with
    | Some b -> b
    | None ->
        let b = { done_ports = Array.make (Partial_tree.num_ports view v) false } in
        boards.(v) <- Some b;
        b
  in
  let first_child_port v = if v = Partial_tree.root view then 0 else 1 in
  let locally_finished v =
    let b = board v in
    let ok = ref true in
    for p = first_child_port v to Array.length b.done_ports - 1 do
      if not b.done_ports.(p) then ok := false
    done;
    !ok
  in
  let unfinished_branches v =
    let b = board v in
    let acc = ref [] in
    for p = Array.length b.done_ports - 1 downto first_child_port v do
      if not b.done_ports.(p) then acc := p :: !acc
    done;
    !acc
  in
  (* A robot moving up from a finished child writes the completion mark on
     the parent's board (it carries the information physically). *)
  let mark_done_at_parent child =
    match Partial_tree.parent view child with
    | None -> ()
    | Some parent ->
        let p = Partial_tree.parent_port view child in
        if p >= 0 then (board parent).done_ports.(p) <- true
  in
  let select env =
    let k = Env.k env in
    let moves = Array.make k Env.Stay in
    let by_node = Hashtbl.create 16 in
    for i = k - 1 downto 0 do
      let pos = Env.position env i in
      let prev = try Hashtbl.find by_node pos with Not_found -> [] in
      Hashtbl.replace by_node pos (i :: prev)
    done;
    let root = Partial_tree.root view in
    let handle_node pos robots =
      if locally_finished pos then begin
        if pos <> root then begin
          mark_done_at_parent pos;
          List.iter (fun i -> moves.(i) <- Env.Up) robots
        end
      end
      else begin
        let ports = Array.of_list (unfinished_branches pos) in
        let m = Array.length ports in
        List.iteri (fun j i -> moves.(i) <- Env.Via_port ports.(j mod m)) robots
      end
    in
    Hashtbl.iter handle_node by_node;
    moves
  in
  {
    Bfdn_sim.Exec_env.select;
    finished = (fun env -> Env.fully_explored env && Env.all_at_root env);
  }
