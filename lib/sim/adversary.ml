module Rng = Bfdn_util.Rng

let make_rec ~capacity ~depth_budget make_policy =
  let forward = ref (fun ~node:_ ~depth:_ ~arriving:_ ~round:_ ~remaining:_ -> 0) in
  let t =
    Lazy_world.adaptive ~capacity ~depth_budget
      (fun ~node ~depth ~arriving ~round ~remaining ->
        !forward ~node ~depth ~arriving ~round ~remaining)
  in
  forward := make_policy t;
  t

(* ---- stock policies ---- *)

let corridor_crowds ~threshold ~node:_ ~depth:_ ~arriving ~round:_ ~remaining:_ =
  if arriving >= threshold then 1 else 2

let greedy_widest ~node:_ ~depth:_ ~arriving:_ ~round:_ ~remaining = remaining

let miser ~node:_ ~depth:_ ~arriving:_ ~round:_ ~remaining:_ = 1

let random_policy rng ~max_children ~node:_ ~depth:_ ~arriving:_ ~round:_ ~remaining:_ =
  Rng.int rng (max_children + 1)

(* Spine-ness is decided at reveal time: the root is spine, and the
   first-listed child of a spine node is spine; everything else is a dead
   tooth. Parents are always revealed before their children, so the memo
   is filled in order. *)
let thick_comb t =
  let spine = Hashtbl.create 64 in
  Hashtbl.replace spine 0 ();
  fun ~node ~depth:_ ~arriving:_ ~round:_ ~remaining:_ ->
    let is_spine =
      node = 0
      || Hashtbl.mem spine (Lazy_world.parent_of t node)
         && Lazy_world.child_index t node = 0
    in
    if is_spine then begin
      Hashtbl.replace spine node ();
      2
    end
    else 0
