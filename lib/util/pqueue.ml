type 'a entry = { prio : float; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a entry option array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = Array.make 16 None; size = 0; next_seq = 0 }

let length t = t.size

let entry t i = match t.heap.(i) with Some e -> e | None -> assert false

let before a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let swap t i j =
  let x = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- x

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before (entry t i) (entry t parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before (entry t l) (entry t !smallest) then smallest := l;
  if r < t.size && before (entry t r) (entry t !smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t prio value =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) None in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- Some { prio; seq = t.next_seq; value };
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = entry t 0 in
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    t.heap.(t.size) <- None;
    if t.size > 0 then sift_down t 0;
    Some (top.prio, top.value)
  end

let peek t = if t.size = 0 then None else Some ((entry t 0).prio, (entry t 0).value)
