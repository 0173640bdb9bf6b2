type node = int

type edge = { id : int; src : node; dst : node; cap : int }

type t = {
  n : int;
  edge_arr : edge array;
  out_adj : edge list array;  (* per node, increasing id *)
  in_adj : edge list array;
  inc_adj : edge list array;  (* per node, both directions, increasing id *)
  out_ids : int array array;  (* per node, edge ids, increasing *)
  in_ids : int array array;
}

let max_total_cap = 1 lsl 30

let make ~nodes spec =
  if nodes < 1 then invalid_arg "Graph.make: nodes < 1";
  let total = ref 0 in
  let check_node v =
    if v < 0 || v >= nodes then
      invalid_arg (Printf.sprintf "Graph.make: node %d out of range" v)
  in
  let blank = { id = 0; src = 0; dst = 0; cap = 1 } in
  let edge_arr = Array.make (List.length spec) blank in
  List.iteri
    (fun id (src, dst, cap) ->
      check_node src;
      check_node dst;
      if src = dst then invalid_arg "Graph.make: self-loop";
      if cap < 1 then invalid_arg "Graph.make: cap < 1";
      (* compared before adding, so the total cannot wrap *)
      if cap > max_total_cap - !total then
        invalid_arg
          (Printf.sprintf "Graph.make: capacities sum past %d" max_total_cap);
      total := !total + cap;
      edge_arr.(id) <- { id; src; dst; cap })
    spec;
  let out_adj = Array.make nodes [] and in_adj = Array.make nodes [] in
  (* Iterate in decreasing id order so cons builds increasing-id lists. *)
  for i = Array.length edge_arr - 1 downto 0 do
    let e = edge_arr.(i) in
    out_adj.(e.src) <- e :: out_adj.(e.src);
    in_adj.(e.dst) <- e :: in_adj.(e.dst)
  done;
  (* Flat int-array adjacency (edge ids, increasing) and the degree
     counts it implies, precomputed once so degree queries are O(1) and
     the runtime engines can walk a node's edges without traversing
     cons cells. *)
  let rec fill a i = function
    | [] -> a
    | e :: rest ->
      a.(i) <- e.id;
      fill a (i + 1) rest
  in
  let ids_of =
    Array.map (fun es -> fill (Array.make (List.length es) 0) 0 es)
  in
  {
    n = nodes;
    edge_arr;
    out_adj;
    in_adj;
    inc_adj =
      Array.init nodes (fun v ->
          List.merge (fun a b -> compare a.id b.id) out_adj.(v) in_adj.(v));
    out_ids = ids_of out_adj;
    in_ids = ids_of in_adj;
  }

let num_nodes g = g.n
let num_edges g = Array.length g.edge_arr
let size g = num_nodes g + num_edges g

let edge g id =
  if id < 0 || id >= Array.length g.edge_arr then
    invalid_arg (Printf.sprintf "Graph.edge: id %d out of range" id);
  g.edge_arr.(id)

let edges g = Array.to_list g.edge_arr
let out_edges g v = g.out_adj.(v)
let in_edges g v = g.in_adj.(v)
let out_edge_ids g v = g.out_ids.(v)
let in_edge_ids g v = g.in_ids.(v)
let out_degree g v = Array.length g.out_ids.(v)
let in_degree g v = Array.length g.in_ids.(v)

let incident_edges g v = g.inc_adj.(v)

let sources g =
  List.filter (fun v -> in_degree g v = 0) (List.init g.n Fun.id)

let sinks g =
  List.filter (fun v -> out_degree g v = 0) (List.init g.n Fun.id)

let other_endpoint e v =
  if v = e.src then e.dst
  else if v = e.dst then e.src
  else invalid_arg "Graph.other_endpoint: node not an endpoint"

let parallel_edges g e =
  List.filter (fun e' -> e'.id <> e.id && e'.dst = e.dst) g.out_adj.(e.src)

let reverse g =
  make ~nodes:g.n
    (List.map (fun e -> (e.dst, e.src, e.cap)) (edges g))

let map_caps g f =
  make ~nodes:g.n (List.map (fun e -> (e.src, e.dst, f e)) (edges g))

let iter_nodes g f =
  for v = 0 to g.n - 1 do
    f v
  done

let fold_edges g ~init ~f = Array.fold_left f init g.edge_arr

let pp ppf g =
  Format.fprintf ppf "@[<v>graph: %d nodes, %d edges" g.n (num_edges g);
  Array.iter
    (fun e ->
      Format.fprintf ppf "@,  e%d: %d -> %d (cap %d)" e.id e.src e.dst e.cap)
    g.edge_arr;
  Format.fprintf ppf "@]"
