type frame = {
  round : int;
  positions : int array;
  explored : int;
  dangling : int;
}

let frame_of_env env =
  let view = Env.view env in
  {
    round = Env.round env;
    positions = Env.positions env;
    explored = Partial_tree.num_explored view;
    dangling = Partial_tree.num_dangling view;
  }

let json_of_frame f =
  let module J = Bfdn_obs.Json in
  Bfdn_obs.Sink.record Bfdn_obs.Sink.Frame
    [
      ("round", J.Int f.round);
      ("explored", J.Int f.explored);
      ("dangling", J.Int f.dangling);
      ( "positions",
        J.List (Array.fold_right (fun p l -> J.Int p :: l) f.positions []) );
    ]

let render_frame env =
  let view = Env.view env in
  let buf = Buffer.create 512 in
  let robots_at =
    let table = Hashtbl.create 16 in
    Array.iteri
      (fun i pos ->
        let prev = try Hashtbl.find table pos with Not_found -> [] in
        Hashtbl.replace table pos (i :: prev))
      (Env.positions env);
    table
  in
  let robot_mark v =
    match Hashtbl.find_opt robots_at v with
    | None -> ""
    | Some rs ->
        let ids = List.rev_map string_of_int rs in
        "  <- robots [" ^ String.concat "," ids ^ "]"
  in
  let rec draw v indent =
    let dangle = ref 0 in
    Partial_tree.iter_dangling_ports view v (fun _ -> incr dangle);
    Buffer.add_string buf indent;
    Buffer.add_string buf (string_of_int v);
    if !dangle > 0 then Buffer.add_string buf (Printf.sprintf " (+%d?)" !dangle);
    Buffer.add_string buf (robot_mark v);
    Buffer.add_char buf '\n';
    Partial_tree.iter_explored_children view v (fun _ c -> draw c (indent ^ "  "))
  in
  Buffer.add_string buf
    (Printf.sprintf "round %d: %d explored, %d dangling\n" (Env.round env)
       (Partial_tree.num_explored view)
       (Partial_tree.num_dangling view));
  draw (Partial_tree.root view) "";
  Buffer.contents buf

let depth_timeline frames env =
  let view = Env.view env in
  let frames = Array.of_list frames in
  let nframes = Array.length frames in
  if nframes = 0 then "(no frames)\n"
  else begin
    let max_depth =
      Array.fold_left
        (fun acc f ->
          Array.fold_left
            (fun acc pos -> max acc (Partial_tree.depth_of view pos))
            acc f.positions)
        0 frames
    in
    let cols = min 72 nframes in
    let rows = max_depth + 1 in
    let counts = Array.make_matrix rows cols 0 in
    for c = 0 to cols - 1 do
      let f = frames.(c * nframes / cols) in
      Array.iter
        (fun pos ->
          let d = Partial_tree.depth_of view pos in
          counts.(d).(c) <- counts.(d).(c) + 1)
        f.positions
    done;
    let glyph n =
      if n = 0 then '.'
      else if n <= 2 then ':'
      else if n <= 5 then 'o'
      else if n <= 10 then 'O'
      else '@'
    in
    let header = Printf.sprintf "robots per depth over time (%d frames):\n" nframes in
    let legend =
      Bfdn_util.Ascii.legend
        [ ('.', "0"); (':', "1-2"); ('o', "3-5"); ('O', "6-10"); ('@', ">10") ]
    in
    let buf = Buffer.create (rows * (cols + 8)) in
    Buffer.add_string buf header;
    for d = 0 to rows - 1 do
      Buffer.add_string buf (Printf.sprintf "d=%-3d " d);
      for c = 0 to cols - 1 do
        Buffer.add_char buf (glyph counts.(d).(c))
      done;
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf "      time ->\n";
    Buffer.add_string buf legend;
    Buffer.add_char buf '\n';
    Buffer.contents buf
  end
