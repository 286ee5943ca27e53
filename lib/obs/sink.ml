module Ring = struct
  type 'a t = {
    buf : 'a option array; (* the [i]-th push lives at [i mod capacity] *)
    mutable pushed : int; (* total ever pushed *)
    mutable closed : bool;
    m : Mutex.t;
    grew : Condition.t; (* broadcast on every push and on close *)
  }

  type cursor = { mutable pos : int (* push index of the next element to read *) }

  let create capacity =
    if capacity < 1 then invalid_arg "Sink.Ring.create: capacity must be >= 1";
    {
      buf = Array.make capacity None;
      pushed = 0;
      closed = false;
      m = Mutex.create ();
      grew = Condition.create ();
    }

  let capacity t = Array.length t.buf

  let locked t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let push t x =
    Mutex.lock t.m;
    if not t.closed then begin
      t.buf.(t.pushed mod Array.length t.buf) <- Some x;
      t.pushed <- t.pushed + 1;
      Condition.broadcast t.grew
    end;
    Mutex.unlock t.m

  let close t =
    Mutex.lock t.m;
    t.closed <- true;
    Condition.broadcast t.grew;
    Mutex.unlock t.m

  (* The helpers below run under the lock. *)
  let oldest t = max 0 (t.pushed - Array.length t.buf)

  let get t i =
    match t.buf.(i mod Array.length t.buf) with
    | Some x -> x
    | None -> assert false

  let length t = locked t (fun () -> t.pushed - oldest t)
  let pushed t = locked t (fun () -> t.pushed)
  let dropped t = locked t (fun () -> oldest t)

  let last t n =
    locked t (fun () ->
        let lo = max (oldest t) (t.pushed - n) in
        List.init (t.pushed - lo) (fun j -> get t (lo + j)))

  let to_list t = last t (capacity t)

  let cursor _ = { pos = 0 }

  let next t c =
    locked t (fun () ->
        while c.pos >= t.pushed && not t.closed do
          Condition.wait t.grew t.m
        done;
        if c.pos >= t.pushed then None
        else begin
          (* A reader that fell more than a capacity behind resumes at
             the oldest element still retained. *)
          let i = max c.pos (oldest t) in
          c.pos <- i + 1;
          Some (get t i)
        end)
end

let write_jsonl oc j =
  output_string oc (Json.to_string j);
  output_char oc '\n'

let dashboard ?(title = "metrics") m =
  let body = Metrics.render m in
  let rule = String.make (max 8 (String.length title + 8)) '-' in
  Printf.sprintf "%s\n-- %s --\n%s%s\n" rule title body rule
