module Env = Bfdn_sim.Env
module Partial_tree = Bfdn_sim.Partial_tree

(* Unfinished branch test for one port of [v]: dangling, or an explored
   child whose discovered subtree still has a dangling edge. *)
let unfinished view v p =
  let c = Partial_tree.port_code view v p in
  c = -2 || (c >= 0 && Partial_tree.subtree_open view c)

let make env =
  let view = Env.view env in
  let n = Env.capacity env in
  let k = Env.k env in
  let root = Partial_tree.root view in
  (* Cursor permanently skipping the finished prefix of each port array
     (finished is absorbing). *)
  let cursor = Array.make n 0 in
  (* Per-round scratch, reused across rounds so select allocates nothing
     in steady state. Per-node entries are validated against [epoch]
     instead of being cleared: [grp_cnt] ranks the robots at a node,
     [br_off]/[br_len] point into the shared [br_buf] segment holding the
     node's unfinished branches for this round. *)
  let moves = Array.make k Env.stay in
  let epoch = ref 0 in
  let grp_stamp = Array.make n (-1) in
  let grp_cnt = Array.make n 0 in
  let br_stamp = Array.make n (-1) in
  let br_off = Array.make n 0 in
  let br_len = Array.make n 0 in
  let br_buf = ref (Array.make 16 0) in
  let br_fill = ref 0 in
  let compute_branches pos =
    let nports = Partial_tree.num_ports view pos in
    while cursor.(pos) < nports && not (unfinished view pos cursor.(pos)) do
      cursor.(pos) <- cursor.(pos) + 1
    done;
    let off = !br_fill in
    let fill = ref off in
    for p = cursor.(pos) to nports - 1 do
      if unfinished view pos p then begin
        if !fill >= Array.length !br_buf then begin
          let b = Array.make (2 * Array.length !br_buf) 0 in
          Array.blit !br_buf 0 b 0 (Array.length !br_buf);
          br_buf := b
        end;
        (!br_buf).(!fill) <- p;
        incr fill
      end
    done;
    br_stamp.(pos) <- !epoch;
    br_off.(pos) <- off;
    br_len.(pos) <- !fill - off;
    br_fill := !fill
  in
  let select env =
    incr epoch;
    br_fill := 0;
    for i = 0 to k - 1 do
      let pos = Env.position env i in
      (* Rank of this robot among the robots currently at [pos] (ids
         ascending) — decides which unfinished branch it takes. *)
      let j =
        if grp_stamp.(pos) = !epoch then grp_cnt.(pos)
        else begin
          grp_stamp.(pos) <- !epoch;
          0
        end
      in
      grp_cnt.(pos) <- j + 1;
      if br_stamp.(pos) <> !epoch then compute_branches pos;
      let m = br_len.(pos) in
      moves.(i) <-
        (if m = 0 then if pos <> root then Env.up else Env.stay
         else Env.via (!br_buf).(br_off.(pos) + (j mod m)))
    done;
    moves
  in
  {
    Bfdn_sim.Exec_env.select;
    finished = (fun env -> Env.fully_explored env && Env.all_at_root env);
  }
