open Fstream_graph

let relax_from g start ~weight ~better =
  let dist = Array.make (Graph.num_nodes g) None in
  dist.(start) <- Some 0;
  Array.iter
    (fun v ->
      match dist.(v) with
      | None -> ()
      | Some dv ->
        List.iter
          (fun (e : Graph.edge) ->
            let cand = dv + weight e in
            match dist.(e.dst) with
            | Some d when not (better cand d) -> ()
            | _ -> dist.(e.dst) <- Some cand)
          (Graph.out_edges g v))
    (Topo.order_exn g);
  dist

let shortest_from g v ~weight = relax_from g v ~weight ~better:( < )
let longest_from g v ~weight = relax_from g v ~weight ~better:( > )

let relax_to g target ~weight ~better =
  let rev = Graph.reverse g in
  let weight (e : Graph.edge) = weight (Graph.edge g e.id) in
  relax_from rev target ~weight ~better

let shortest_to g v ~weight = relax_to g v ~weight ~better:( < )
let longest_to g v ~weight = relax_to g v ~weight ~better:( > )

let shortest_caps g ~src ~dst =
  (shortest_from g src ~weight:(fun e -> e.cap)).(dst)

let longest_hops g ~src ~dst =
  (longest_from g src ~weight:(fun _ -> 1)).(dst)

let longest_hops_through g ~src ~dst =
  let fwd = longest_from g src ~weight:(fun _ -> 1) in
  let bwd = longest_to g dst ~weight:(fun _ -> 1) in
  let through = Array.make (Graph.num_edges g) None in
  List.iter
    (fun (e : Graph.edge) ->
      match (fwd.(e.src), bwd.(e.dst)) with
      | Some a, Some b -> through.(e.id) <- Some (a + 1 + b)
      | _ -> ())
    (Graph.edges g);
  through
