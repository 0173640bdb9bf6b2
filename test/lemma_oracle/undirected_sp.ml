(* Undirected series-parallel reduction of one biconnected component.

   State is a working multigraph over the component's vertices:
   - a parallel merge removes one of two edges sharing both endpoints;
   - a series contraction replaces a degree-2 vertex and its two edges
     (to distinct neighbours) by one edge.
   The component is series-parallel iff the fixpoint is a single edge.
   A degree-2 vertex whose two edges go to the same neighbour is a
   2-cycle and is handled by the parallel rule first. *)

open Fstream_graph

module Iset = Set.Make (Int)

type state = {
  ends : (int, Graph.node * Graph.node) Hashtbl.t;  (* live edge -> endpoints *)
  inc : (Graph.node, Iset.t) Hashtbl.t;
  pair : (Graph.node * Graph.node, int) Hashtbl.t;
  mutable next_id : int;
  mutable live : int;
  queue : Graph.node Queue.t;
}

let get_inc st v = Option.value ~default:Iset.empty (Hashtbl.find_opt st.inc v)

let key u v = (min u v, max u v)

let remove st id =
  let u, v = Hashtbl.find st.ends id in
  Hashtbl.remove st.ends id;
  st.live <- st.live - 1;
  Hashtbl.replace st.inc u (Iset.remove id (get_inc st u));
  Hashtbl.replace st.inc v (Iset.remove id (get_inc st v));
  if Hashtbl.find_opt st.pair (key u v) = Some id then
    Hashtbl.remove st.pair (key u v)

let rec add st u v =
  match Hashtbl.find_opt st.pair (key u v) with
  | Some other ->
    (* parallel merge: drop the older edge, keep the new one *)
    remove st other;
    add st u v
  | None ->
    let id = st.next_id in
    st.next_id <- id + 1;
    st.live <- st.live + 1;
    Hashtbl.replace st.ends id (u, v);
    Hashtbl.replace st.inc u (Iset.add id (get_inc st u));
    Hashtbl.replace st.inc v (Iset.add id (get_inc st v));
    Hashtbl.replace st.pair (key u v) id;
    Queue.add u st.queue;
    Queue.add v st.queue

let try_contract st v =
  match Iset.elements (get_inc st v) with
  | [ e1; e2 ] ->
    let other e =
      let a, b = Hashtbl.find st.ends e in
      if a = v then b else a
    in
    let a = other e1 and b = other e2 in
    (* a = b cannot happen: both edges would be parallel and already
       merged into one, leaving v with degree 1 *)
    if a <> b then begin
      remove st e1;
      remove st e2;
      add st a b
    end
  | _ -> ()

let component_is_sp _g edges =
  let st =
    {
      ends = Hashtbl.create 64;
      inc = Hashtbl.create 64;
      pair = Hashtbl.create 64;
      next_id = 0;
      live = 0;
      queue = Queue.create ();
    }
  in
  List.iter (fun (e : Graph.edge) -> add st e.src e.dst) edges;
  while not (Queue.is_empty st.queue) do
    try_contract st (Queue.pop st.queue)
  done;
  st.live <= 1

let has_k4_subdivision g =
  List.exists
    (fun comp -> not (component_is_sp g comp))
    (Articulation.biconnected_components g)

let is_undirected_sp g = not (has_k4_subdivision g)
