module Fault_plan = Bfdn_faults.Fault_plan

let probability = Param.Floats (0.0, 1.0)

let schema =
  [
    Param.spec "crashes" (Param.String "")
      "explicit schedule, comma-separated ROBOT@ROUND[+AFTER] (e.g. \
       \"2@10,5@40+30\"); exclusive with rate";
    Param.spec "rate" (Param.Float 0.0)
      "random mode: per-robot crash probability" ~accepts:probability;
    Param.spec "window" (Param.Int 64)
      "random mode: crash round uniform in [1, window]"
      ~accepts:(Param.Ints (1, max_int));
    Param.spec "restart" (Param.Int (-1))
      "random mode: rounds until a replacement at the root; -1 = never"
      ~accepts:(Param.Ints (-1, max_int));
    Param.spec "drops" (Param.Float 0.0)
      "whiteboard write-drop probability, below 1" ~accepts:probability;
    Param.spec "mask" (Param.String "none")
      "move mask: none, rotating, random, half or solo"
      ~accepts:(Param.One_of [ "none"; "rotating"; "random"; "half"; "solo" ]);
    Param.spec "mask_m" (Param.Int 3)
      "rotating mask: blocked when (round + robot) mod mask_m = 0"
      ~accepts:(Param.Ints (2, max_int));
    Param.spec "mask_p" (Param.Float 0.5)
      "random mask: per-(round, robot) block probability" ~accepts:probability;
  ]

let ( let* ) = Result.bind

let parse_int ~what s =
  match int_of_string_opt (String.trim s) with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: %S is not an integer" what s)

(* "ROBOT@ROUND" or "ROBOT@ROUND+AFTER" -> (robot, round, restart delay). *)
let parse_entry s =
  let what = Printf.sprintf "crash entry %S" s in
  match String.index_opt s '@' with
  | None -> Error (what ^ ": expected ROBOT@ROUND[+AFTER]")
  | Some i ->
      let* robot = parse_int ~what (String.sub s 0 i) in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let* round, after =
        match String.index_opt rest '+' with
        | None ->
            let* r = parse_int ~what rest in
            Ok (r, -1)
        | Some j ->
            let* r = parse_int ~what (String.sub rest 0 j) in
            let* a =
              parse_int ~what (String.sub rest (j + 1) (String.length rest - j - 1))
            in
            Ok (r, a)
      in
      let* () =
        if robot < 0 then Error (what ^ ": robot must be >= 0")
        else if round < 1 then Error (what ^ ": round must be >= 1")
        else if after <> -1 && after < 1 then
          Error (what ^ ": restart delay must be >= 1")
        else Ok ()
      in
      Ok (robot, round, after)

let parse_crashes s =
  if String.trim s = "" then Ok []
  else
    let parts = String.split_on_char ',' s in
    List.fold_left
      (fun acc part ->
        let* acc = acc in
        let* entry = parse_entry (String.trim part) in
        Ok (entry :: acc))
      (Ok []) parts
    |> Result.map List.rev

(* [mask] is one of the schema's [One_of] names. *)
let mask_of ~mask ~mask_m ~mask_p =
  match mask with
  | "rotating" -> Fault_plan.Rotating mask_m
  | "random" -> Fault_plan.Random mask_p
  | "half" -> Fault_plan.Half
  | "solo" -> Fault_plan.Solo
  | _ -> Fault_plan.No_mask

type compiled = {
  c_crashes : (int * int * int) list;
  c_rate : float;
  c_window : int;
  c_restart : int;
  c_drops : float;
  c_mask : Fault_plan.mask;
}

let compile ?k bindings =
  let* () =
    Result.map_error (( ^ ) "faults: ") (Param.validate ~schema bindings)
  in
  let get_i = Param.get_int ~schema bindings in
  let get_f = Param.get_float ~schema bindings in
  let get_s = Param.get_string ~schema bindings in
  let* c_crashes = parse_crashes (get_s "crashes") in
  let c_rate = get_f "rate" in
  let c_window = get_i "window" in
  let c_restart = get_i "restart" in
  let c_drops = get_f "drops" in
  let c_mask =
    mask_of ~mask:(get_s "mask") ~mask_m:(get_i "mask_m")
      ~mask_p:(get_f "mask_p")
  in
  (* What the schema's [accepts] cannot say. *)
  let* () =
    if c_drops >= 1.0 then Error "fault drops must be in [0, 1)"
    else if c_crashes <> [] && c_rate > 0.0 then
      Error "fault crashes and rate are mutually exclusive"
    else Ok ()
  in
  let* () =
    match k with
    | None -> Ok ()
    | Some k ->
        List.fold_left
          (fun acc (robot, _, _) ->
            let* () = acc in
            if robot >= k then
              Error
                (Printf.sprintf "fault crash robot %d out of range (k = %d)"
                   robot k)
            else Ok ())
          (Ok ()) c_crashes
  in
  Ok { c_crashes; c_rate; c_window; c_restart; c_drops; c_mask }

let validate ?k bindings = Result.map (fun _ -> ()) (compile ?k bindings)

let plan ~rng ~k bindings =
  match compile ~k bindings with
  | Error msg -> invalid_arg ("Fault_spec.plan: " ^ msg)
  | Ok c ->
      if
        c.c_crashes = [] && c.c_rate = 0.0 && c.c_drops = 0.0
        && c.c_mask = Fault_plan.No_mask
      then None
      else if c.c_crashes <> [] then
        let seed = Bfdn_util.Rng.int rng 0x40000000 in
        Some
          (Fault_plan.make ~drop_writes:c.c_drops ~mask:c.c_mask ~seed ~k
             c.c_crashes)
      else
        Some
          (Fault_plan.random ~rng ~k ~rate:c.c_rate ~window:c.c_window
             ~restart:c.c_restart ~drop_writes:c.c_drops ~mask:c.c_mask ())
