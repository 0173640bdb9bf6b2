type spec =
  | Edge of int
  | Series of spec list
  | Parallel of spec list

let rec num_edges = function
  | Edge _ -> 1
  | Series l | Parallel l ->
    List.fold_left (fun acc s -> acc + num_edges s) 0 l

let rec num_inner_nodes = function
  | Edge _ -> 0
  | Series l ->
    List.length l - 1
    + List.fold_left (fun acc s -> acc + num_inner_nodes s) 0 l
  | Parallel l -> List.fold_left (fun acc s -> acc + num_inner_nodes s) 0 l

let to_graph spec =
  let next = ref 1 in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  let rec emit spec src dst acc =
    match spec with
    | Edge cap -> (src, dst, cap) :: acc
    | Series [] -> invalid_arg "Sp_build.to_graph: empty Series"
    | Series [ s ] -> emit s src dst acc
    | Series (s :: rest) ->
      let j = fresh () in
      emit (Series rest) j dst (emit s src j acc)
    | Parallel [] -> invalid_arg "Sp_build.to_graph: empty Parallel"
    | Parallel l -> List.fold_left (fun acc s -> emit s src dst acc) acc l
  in
  let sink = 1 + num_inner_nodes spec in
  let edges = List.rev (emit spec 0 sink []) in
  Fstream_graph.Graph.make ~nodes:(sink + 1) edges
