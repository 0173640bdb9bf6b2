(* Cooper-Harvey-Kennedy iterative dominators: on a DAG a single pass in
   reverse post-order (here: topological order restricted to nodes
   reachable from the root) converges, because every predecessor of a
   node precedes it in the order. *)

open Fstream_graph

let idoms g root =
  let n = Graph.num_nodes g in
  let reach = Topo.reachable g root in
  let order =
    Array.to_list (Topo.order_exn g) |> List.filter (fun v -> reach.(v))
  in
  let pos = Array.make n (-1) in
  List.iteri (fun i v -> pos.(v) <- i) order;
  let idom = Array.make n (-1) in
  idom.(root) <- root;
  let rec intersect a b =
    if a = b then a
    else if pos.(a) > pos.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun v ->
        if v <> root then begin
          let preds =
            List.filter_map
              (fun (e : Graph.edge) ->
                if reach.(e.src) && idom.(e.src) <> -1 then Some e.src
                else None)
              (Graph.in_edges g v)
          in
          match preds with
          | [] -> ()
          | p :: rest ->
            let d = List.fold_left intersect p rest in
            if idom.(v) <> d then begin
              idom.(v) <- d;
              changed := true
            end
        end)
      order
  done;
  idom

let ipostdoms g sink = idoms (Graph.reverse g) sink

let dominates g root a b =
  let idom = idoms g root in
  if idom.(b) = -1 then invalid_arg "Dominators.dominates: b unreachable";
  let rec climb v = v = a || (v <> root && climb idom.(v)) in
  climb b
