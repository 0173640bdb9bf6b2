open Fstream_graph

type t = {
  shape : shape;
  source : Graph.node;
  sink : Graph.node;
  l : int;
  h : int;
  n_edges : int;
}

and shape =
  | Leaf of Graph.edge
  | Series of t * t
  | Parallel of t * t

let leaf (e : Graph.edge) =
  {
    shape = Leaf e;
    source = e.src;
    sink = e.dst;
    l = e.cap;
    h = 1;
    n_edges = 1;
  }

let series h1 h2 =
  if h1.sink <> h2.source then
    invalid_arg "Sp_tree.series: sink of first must be source of second";
  {
    shape = Series (h1, h2);
    source = h1.source;
    sink = h2.sink;
    l = h1.l + h2.l;
    h = h1.h + h2.h;
    n_edges = h1.n_edges + h2.n_edges;
  }

let parallel h1 h2 =
  if h1.source <> h2.source || h1.sink <> h2.sink then
    invalid_arg "Sp_tree.parallel: terminals must coincide";
  {
    shape = Parallel (h1, h2);
    source = h1.source;
    sink = h1.sink;
    l = min h1.l h2.l;
    h = max h1.h h2.h;
    n_edges = h1.n_edges + h2.n_edges;
  }

let iter_edges t f =
  let rec go t =
    match t.shape with
    | Leaf e -> f e
    | Series (a, b) | Parallel (a, b) ->
      go a;
      go b
  in
  go t

let edges t =
  let acc = ref [] in
  iter_edges t (fun e -> acc := e :: !acc);
  List.rev !acc

let series_spine t =
  (* Walk only through Series nodes: anything below a Parallel lies on
     an undirected cycle formed with the sibling branch. *)
  let acc = ref [] in
  let rec go t =
    match t.shape with
    | Leaf e -> acc := e :: !acc
    | Series (a, b) ->
      go a;
      go b
    | Parallel _ -> ()
  in
  go t;
  List.rev !acc

let check_against t g =
  let seen = Array.make (Graph.num_edges g) false in
  let ok = ref true in
  iter_edges t (fun e ->
      if e.id < 0 || e.id >= Graph.num_edges g || seen.(e.id) then ok := false
      else begin
        seen.(e.id) <- true;
        let e' = Graph.edge g e.id in
        if e' <> e then ok := false
      end);
  !ok
  && Array.for_all Fun.id seen
  &&
  match Topo.is_two_terminal g with
  | Some (x, y) -> t.source = x && t.sink = y
  | None -> false

let rec refresh g t =
  match t.shape with
  | Leaf e -> leaf (Graph.edge g e.id)
  | Series (a, b) -> series (refresh g a) (refresh g b)
  | Parallel (a, b) -> parallel (refresh g a) (refresh g b)
