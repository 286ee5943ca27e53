type node = int

type t = {
  adj : node array array; (* neighbours in port order *)
  rev : int array array; (* rev.(v).(p): port of [neighbor v p] leading back *)
  num_edges : int;
}

let of_edges ~n edges =
  if n < 1 then invalid_arg "Graph.of_edges: n must be >= 1";
  let seen = Hashtbl.create (List.length edges) in
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: endpoint out of range";
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      let key = (min u v, max u v) in
      if Hashtbl.mem seen key then invalid_arg "Graph.of_edges: duplicate edge";
      Hashtbl.add seen key ();
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let adj = Array.map (fun d -> Array.make d (-1)) deg in
  let rev = Array.map (fun d -> Array.make d (-1)) deg in
  let fill = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      let pu = fill.(u) and pv = fill.(v) in
      adj.(u).(pu) <- v;
      adj.(v).(pv) <- u;
      rev.(u).(pu) <- pv;
      rev.(v).(pv) <- pu;
      fill.(u) <- pu + 1;
      fill.(v) <- pv + 1)
    edges;
  { adj; rev; num_edges = List.length edges }

let n t = Array.length t.adj
let num_edges t = t.num_edges
let degree t v = Array.length t.adj.(v)

let max_degree t = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 t.adj

let neighbor t v p =
  if p < 0 || p >= degree t v then invalid_arg "Graph.neighbor: bad port";
  t.adj.(v).(p)

let reverse_port t v p =
  if p < 0 || p >= degree t v then invalid_arg "Graph.reverse_port: bad port";
  t.rev.(v).(p)

let bfs_dist t src =
  let dist = Array.make (n t) max_int in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun w ->
        if dist.(w) = max_int then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w queue
        end)
      t.adj.(v)
  done;
  dist

let connected_from t src = Array.map (fun d -> d < max_int) (bfs_dist t src)

let eccentricity t src =
  Array.fold_left
    (fun acc d -> if d < max_int then max acc d else acc)
    0 (bfs_dist t src)
