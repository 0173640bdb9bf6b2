(* Kahn's algorithm over a binary min-heap of the ready node ids, so
   ties break towards the lower id. Three int arrays are its only
   allocation. *)
let order g =
  let n = Graph.num_nodes g in
  let indeg = Array.init n (Graph.in_degree g) in
  let heap = Array.make n 0 and ord = Array.make n 0 in
  let size = ref 0 and count = ref 0 in
  (* sift [v] into the hole at [i], towards the root or the leaves *)
  let rec up i v =
    let p = (i - 1) / 2 in
    if i > 0 && heap.(p) > v then begin
      heap.(i) <- heap.(p);
      up p v
    end
    else heap.(i) <- v
  in
  let rec down i v =
    let c = (2 * i) + 1 in
    let c = if c + 1 < !size && heap.(c + 1) < heap.(c) then c + 1 else c in
    if c < !size && heap.(c) < v then begin
      heap.(i) <- heap.(c);
      down c v
    end
    else heap.(i) <- v
  in
  let push v = incr size; up (!size - 1) v in
  let rec release = function
    | [] -> ()
    | (e : Graph.edge) :: rest ->
      indeg.(e.dst) <- indeg.(e.dst) - 1;
      if indeg.(e.dst) = 0 then push e.dst;
      release rest
  in
  Array.iteri (fun v d -> if d = 0 then push v) indeg;
  while !size > 0 do
    let v = heap.(0) in
    decr size;
    down 0 heap.(!size);
    ord.(!count) <- v;
    incr count;
    release (Graph.out_edges g v)
  done;
  if !count = n then Some ord else None

let is_dag g = Option.is_some (order g)

let order_exn g =
  match order g with
  | Some a -> a
  | None -> invalid_arg "Topo.order_exn: graph has a directed cycle"

let rank g =
  let r = Array.make (Graph.num_nodes g) 0 in
  Array.iteri (fun i v -> r.(v) <- i) (order_exn g);
  r

let search g roots next =
  let seen = Array.make (Graph.num_nodes g) false in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter visit (next v)
    end
  in
  List.iter visit roots;
  seen

let successors g u =
  List.map (fun (e : Graph.edge) -> e.dst) (Graph.out_edges g u)

let predecessors g u =
  List.map (fun (e : Graph.edge) -> e.src) (Graph.in_edges g u)

let neighbours g u =
  List.map (fun e -> Graph.other_endpoint e u) (Graph.incident_edges g u)

let reachable g v = search g [ v ] (successors g)
let co_reachable g v = search g [ v ] (predecessors g)
let connected g = Array.for_all Fun.id (search g [ 0 ] (neighbours g))

(* Walking in-edges backwards from any node of a DAG ends at a source,
   and walking out-edges ends at a sink; with one of each, every node
   lies on a source-to-sink path. *)
let dag_terminals g =
  let src = ref (-1) and snk = ref (-1) and ends = ref 0 in
  for v = 0 to Graph.num_nodes g - 1 do
    if Graph.in_degree g v = 0 then (src := v; incr ends);
    if Graph.out_degree g v = 0 then (snk := v; incr ends)
  done;
  if !ends = 2 then Some (!src, !snk) else None

let is_two_terminal g = if is_dag g then dag_terminals g else None
