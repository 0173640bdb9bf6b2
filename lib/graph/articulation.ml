(* Iterative Hopcroft-Tarjan biconnected components on the undirected
   view of the multigraph. Iterative because benchmark graphs reach tens
   of thousands of nodes and a long pipeline would otherwise recurse that
   deep. Parallel edges are distinct edges, so a multi-edge forms a
   2-cycle and biconnects its endpoints; the only edge excluded when
   scanning a vertex is the specific tree edge used to enter it. *)

let biconnected_components g =
  let n = Graph.num_nodes g in
  let inc =
    Array.init n (fun v -> Array.of_list (Graph.incident_edges g v))
  in
  let disc = Array.make n (-1) and low = Array.make n 0 in
  let time = ref 0 in
  (* The DFS stack as three parallel arrays (vertex, id of the tree edge
     that entered it, next incident-edge index) and the edge stack as an
     array: no per-step allocation, so a long pipeline costs no more per
     node than a short one. *)
  let st_v = Array.make n 0 and st_pe = Array.make n 0 in
  let st_i = Array.make n 0 in
  let sp = ref 0 in
  let estack = Array.make (Graph.num_edges g) 0 in
  let ep = ref 0 in
  let comps = ref [] in
  let by_id (a : Graph.edge) (b : Graph.edge) = compare a.id b.id in
  let push v pe =
    disc.(v) <- !time;
    low.(v) <- !time;
    incr time;
    st_v.(!sp) <- v;
    st_pe.(!sp) <- pe;
    st_i.(!sp) <- 0;
    incr sp
  in
  for root = 0 to n - 1 do
    if disc.(root) = -1 then begin
      push root (-1);
      while !sp > 0 do
        let top = !sp - 1 in
        let v = st_v.(top) and parent_edge = st_pe.(top) in
        let i = st_i.(top) in
        if i < Array.length inc.(v) then begin
          let e = inc.(v).(i) in
          st_i.(top) <- i + 1;
          if e.id <> parent_edge then begin
            let w = Graph.other_endpoint e v in
            if disc.(w) = -1 then begin
              estack.(!ep) <- e.id;
              incr ep;
              push w e.id
            end
            else if disc.(w) < disc.(v) then begin
              (* Back edge; pushed only from the deeper endpoint so each
                 non-tree edge enters the stack exactly once. *)
              estack.(!ep) <- e.id;
              incr ep;
              if disc.(w) < low.(v) then low.(v) <- disc.(w)
            end
          end
        end
        else begin
          decr sp;
          if !sp > 0 then begin
            let u = st_v.(!sp - 1) in
            if low.(v) < low.(u) then low.(u) <- low.(v);
            if low.(v) >= disc.(u) then begin
              (* v's subtree plus edge u-v is a complete component. *)
              let rec pop acc =
                if !ep = 0 then acc
                else begin
                  decr ep;
                  let e = Graph.edge g estack.(!ep) in
                  if e.id = parent_edge then e :: acc else pop (e :: acc)
                end
              in
              comps := List.sort by_id (pop []) :: !comps
            end
          end
        end
      done
    end
  done;
  !comps

let bridges g =
  let b = Array.make (Graph.num_edges g) false in
  List.iter
    (fun comp ->
      match comp with
      | [ (e : Graph.edge) ] -> b.(e.id) <- true
      | _ -> ())
    (biconnected_components g);
  b

let component_nodes comp =
  List.sort_uniq compare
    (List.concat_map (fun (e : Graph.edge) -> [ e.src; e.dst ]) comp)

let articulation_points g =
  let count = Array.make (Graph.num_nodes g) 0 in
  List.iter
    (fun comp ->
      List.iter (fun v -> count.(v) <- count.(v) + 1) (component_nodes comp))
    (biconnected_components g);
  List.filter (fun v -> count.(v) >= 2) (List.init (Graph.num_nodes g) Fun.id)

(* The block-cut tree of a two-terminal DAG is a path: file each block
   under its end of least rank (its sink is the end of greatest rank)
   and walk from [x] to [y]. A block off the walk, or a walk that stops
   short, is a broken chain (cannot happen for a DAG). *)
let serial_blocks ?order g =
  let order = match order with Some _ -> order | None -> Topo.order g in
  match (order, Topo.dag_terminals g) with
  | None, _ | _, None ->
    invalid_arg "Articulation.serial_blocks: not a two-terminal DAG"
  | Some order, Some (x, y) ->
    let n = Graph.num_nodes g in
    let rank = Array.make n 0 in
    Array.iteri (fun i v -> rank.(v) <- i) order;
    let sink_of = Array.make n (-1) and comp_of = Array.make n [] in
    let rec ends s t = function
      | [] -> (s, t)
      | (e : Graph.edge) :: rest ->
        ends
          (if rank.(e.src) < rank.(s) then e.src else s)
          (if rank.(e.dst) > rank.(t) then e.dst else t)
          rest
    in
    let comps = biconnected_components g in
    List.iter
      (fun comp ->
        let (e : Graph.edge) = List.hd comp in
        let s, t = ends e.src e.dst comp in
        sink_of.(s) <- t;
        comp_of.(s) <- comp)
      comps;
    let broken () = invalid_arg "serial_blocks: broken chain" in
    let rec walk v k acc =
      if v = y then if k = List.length comps then List.rev acc else broken ()
      else if sink_of.(v) < 0 then broken ()
      else walk sink_of.(v) (k + 1) ((v, sink_of.(v), comp_of.(v)) :: acc)
    in
    walk x 0 []
