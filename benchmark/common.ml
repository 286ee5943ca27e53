(* Shared plumbing for the repository benchmark: clock and statistics,
   peak-RSS reading, check failures, and the in-memory span recorder
   used by traced runs. *)

module Json = Bfdn_obs.Json
module Clock = Bfdn_util.Clock

let now_ns = Clock.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

(* A failed correctness check: the run exits nonzero and prints no
   result line. *)
exception Check_failed of string

let check_failed fmt = Printf.ksprintf (fun m -> raise (Check_failed m)) fmt

(* ---- statistics ---- *)

(* Percentile with linear interpolation between order statistics, [p]
   in [0, 1]; interpolating keeps small samples (a dozen child runs)
   from jumping between neighbouring values. *)
let percentile p xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort Float.compare a;
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    if lo >= n - 1 then a.(n - 1) else a.(lo) +. ((h -. float_of_int lo) *. (a.(lo + 1) -. a.(lo)))
  end

let median xs = percentile 0.5 xs

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)]
   (method "exclusive") computes them, so repeat summaries match the
   spreads the acceptance rule uses. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* ---- host-speed reference ----

   The host this benchmark runs on is shared: for minutes at a time its
   neighbours slow every workload, by up to 1.7 times, and no window
   length averages that out. So each timed slice is bracketed by samples
   of a fixed loop that runs in a process of its own (reference.ml), and
   every reported time is rescaled to the host speed at which a sample
   takes [reference_ns]: t × reference_ns / (the mean of the two samples
   around it). README.md, "Host-speed normalization", has the evidence. *)

(* A sample's duration on the machine the committed results come from
   at its calmest (the 1st percentile of about 7000 samples), so that
   normalized times read close to what a calm host shows. *)
let reference_ns = 12e6

(* A sample runs the loop alone and then on this many cores at once:
   as many as the busiest workload keeps busy (sweep's two engine
   workers). *)
let reference_domains = min 2 (Domain.recommended_domain_count ())

let normalize ~ref_ns t = t *. reference_ns /. ref_ns

type reference = { pid : int; req : out_channel; resp : in_channel }

let reference_exe () = Filename.concat (Filename.dirname Sys.executable_name) "reference.exe"

let stop_reference r =
  (try
     output_string r.req "q\n";
     flush r.req
   with Sys_error _ -> ());
  close_out_noerr r.req;
  close_in_noerr r.resp;
  ignore (Unix.waitpid [] r.pid)

(* Started on first use and stopped when this process exits. A forked
   child that shares its pipes leaves through [Unix._exit], so only this
   process stops it; the explicit "q" ends it even while such a child
   still holds the pipes open. *)
let reference =
  lazy
    (let exe = reference_exe () in
     if not (Sys.file_exists exe) then check_failed "%s is missing (sh benchmark/run.sh builds it)" exe;
     let req_r, req_w = Unix.pipe ~cloexec:true () in
     let resp_r, resp_w = Unix.pipe ~cloexec:true () in
     let pid = Unix.create_process exe [| exe |] req_r resp_w Unix.stderr in
     Unix.close req_r;
     Unix.close resp_w;
     let r = { pid; req = Unix.out_channel_of_descr req_w; resp = Unix.in_channel_of_descr resp_r } in
     at_exit (fun () -> stop_reference r);
     r)

(* One sample of the reference loop, in ns. *)
let sample_reference () =
  let r = Lazy.force reference in
  output_string r.req (string_of_int reference_domains ^ "\n");
  flush r.req;
  match Option.bind (In_channel.input_line r.resp) int_of_string_opt with
  | Some ns when ns > 0 -> ns
  | _ -> check_failed "the reference process did not answer"

(* ---- process memory ---- *)

(* VmHWM of [pid] (or of this process) in MiB, from /proc. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let lines = In_channel.with_open_text path In_channel.input_all in
  let kb =
    List.find_map
      (fun line ->
        try Some (Scanf.sscanf line "VmHWM: %d kB" Fun.id) with _ -> None)
      (String.split_on_char '\n' lines)
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> check_failed "no VmHWM in %s" path

(* ---- spans ----

   Traced runs record a span around each call into a layer: name,
   monotonic start and end, and the span that caused it. Spans stay in
   memory (a mutex guards the list: worker domains record too) and are
   written as JSONL when the run ends. *)

type span = { id : int; parent : int; name : string; t0 : int; t1 : int }

let spans : span list ref = ref []
let next_id = ref 1
let span_m = Mutex.create ()

let add_span ?(parent = 0) name t0 t1 =
  Mutex.lock span_m;
  let id = !next_id in
  incr next_id;
  spans := { id; parent; name; t0; t1 } :: !spans;
  Mutex.unlock span_m;
  id

(* A span whose children are recorded inside [f]: the id is reserved up
   front so children can name it as their parent. *)
let with_span ?(parent = 0) name f =
  Mutex.lock span_m;
  let id = !next_id in
  incr next_id;
  Mutex.unlock span_m;
  let t0 = now_ns () in
  let r = f id in
  let t1 = now_ns () in
  Mutex.lock span_m;
  spans := { id; parent; name; t0; t1 } :: !spans;
  Mutex.unlock span_m;
  r

(* Time [f] once under a span named [name]; returns the result and the
   duration in ns. *)
let timed ?parent name f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  ignore (add_span ?parent name t0 t1);
  (r, t1 - t0)

let durations name =
  List.filter_map
    (fun s -> if String.equal s.name name then Some (float_of_int (s.t1 - s.t0)) else None)
    !spans

(* Self time per span name: duration minus the part of the interval its
   children cover (children of one parent may overlap when they ran on
   different domains, so the covered part is a union). *)
let self_times () =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add children s.parent s) !spans;
  let covered s =
    let ivs =
      List.sort compare
        (List.map (fun c -> (max s.t0 c.t0, min s.t1 c.t1)) (Hashtbl.find_all children s.id))
    in
    let total, _ =
      List.fold_left
        (fun (acc, hi) (a, b) ->
          let a = max a hi in
          if b > a then (acc + (b - a), b) else (acc, hi))
        (0, min_int) ivs
    in
    total
  in
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = s.t1 - s.t0 - covered s in
      let n, tot = Option.value ~default:(0, 0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, tot + self))
    !spans;
  List.sort compare (Hashtbl.fold (fun name (n, tot) acc -> (name, n, tot) :: acc) by_name [])

let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Out_channel.output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("id", Json.Int s.id);
                    ("parent", Json.Int s.parent);
                    ("name", Json.String s.name);
                    ("start_ns", Json.Int s.t0);
                    ("end_ns", Json.Int s.t1);
                  ]));
          Out_channel.output_char oc '\n')
        (List.rev !spans))

(* ---- small JSON readers ---- *)

let member key j =
  match Json.member key j with
  | Some v -> v
  | None -> check_failed "missing member %S" key

let to_int = function
  | Json.Int i -> i
  | Json.Float f -> int_of_float f
  | _ -> check_failed "expected an integer"

let to_float = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> check_failed "expected a number"

let parse_json what s =
  match Json.of_string s with
  | Ok j -> j
  | Error msg -> check_failed "%s is not JSON: %s" what msg

(* Run this executable again with [args] in a fresh process, wait for it,
   and parse the last line of its stdout; its stderr passes through. *)
let run_self args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list (Sys.executable_name :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  match (snd (Unix.waitpid [] pid), List.rev (String.split_on_char '\n' (String.trim out))) with
  | Unix.WEXITED 0, last :: _ -> Json.of_string last
  | _ -> Error "exited nonzero"
