open Fstream_graph

type t = {
  original : Graph.t;
  graph : Graph.t;
  group_of : int array;
  members : int array array;
  edge_of : int array;
  orig_edge : int array;
}

let fuse ?(pin = fun _ -> false) ?filter_class ?bridges g =
  let n = Graph.num_nodes g in
  let m = Graph.num_edges g in
  let bridge =
    match bridges with Some b -> b | None -> Articulation.bridges g
  in
  let same_class u v =
    match filter_class with None -> true | Some f -> f u = f v
  in
  let fusable (e : Graph.edge) =
    bridge.(e.id)
    && Graph.out_degree g e.src = 1
    && Graph.in_degree g e.dst = 1
    && Graph.out_degree g e.dst > 0
    && (not (pin e.src))
    && (not (pin e.dst))
    && same_class e.src e.dst
  in
  (* Each node has at most one fusable in-edge (in-degree 1 at the dst)
     and one fusable out-edge (out-degree 1 at the src), so the fusable
     edges form disjoint simple chains; bridges lie on no cycle, so the
     chains terminate even on cyclic inputs. *)
  let next = Array.make n (-1) in
  let head = Array.make n true in
  let internal = Array.make m false in
  List.iter
    (fun (e : Graph.edge) ->
      if fusable e then begin
        internal.(e.id) <- true;
        next.(e.src) <- e.dst;
        head.(e.dst) <- false
      end)
    (Graph.edges g);
  let group_of = Array.make n (-1) in
  let members = ref [] in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if head.(v) then begin
      let gid = !count in
      incr count;
      let chain = ref [] in
      let u = ref v in
      let walking = ref true in
      while !walking do
        group_of.(!u) <- gid;
        chain := !u :: !chain;
        if next.(!u) >= 0 then u := next.(!u) else walking := false
      done;
      members := Array.of_list (List.rev !chain) :: !members
    end
  done;
  let members = Array.of_list (List.rev !members) in
  let edge_of = Array.make m (-1) in
  let fused_edges = ref [] in
  let orig = ref [] in
  let k = ref 0 in
  List.iter
    (fun (e : Graph.edge) ->
      if not internal.(e.id) then begin
        edge_of.(e.id) <- !k;
        incr k;
        orig := e.id :: !orig;
        fused_edges :=
          (group_of.(e.src), group_of.(e.dst), e.cap) :: !fused_edges
      end)
    (Graph.edges g);
  let graph =
    Graph.make ~nodes:(Array.length members) (List.rev !fused_edges)
  in
  {
    original = g;
    graph;
    group_of;
    members;
    edge_of;
    orig_edge = Array.of_list (List.rev !orig);
  }

let is_identity t = Graph.num_nodes t.graph = Graph.num_nodes t.original

let internal_edges t = Graph.num_edges t.original - Graph.num_edges t.graph

let derive_intervals t ivals =
  if Array.length ivals <> Graph.num_edges t.original then
    invalid_arg "Fusion.derive_intervals: table not indexed by original edges";
  Array.map (fun oe -> ivals.(oe)) t.orig_edge

let pp ppf t =
  Format.fprintf ppf "@[<v>%d nodes -> %d kernels, %d channels -> %d (%d collapsed)"
    (Graph.num_nodes t.original)
    (Graph.num_nodes t.graph)
    (Graph.num_edges t.original)
    (Graph.num_edges t.graph)
    (internal_edges t);
  Array.iteri
    (fun gid mem ->
      Format.fprintf ppf "@,  k%d = %s" gid
        (String.concat " -> "
           (List.map (fun v -> "n" ^ string_of_int v) (Array.to_list mem))))
    t.members;
  Format.fprintf ppf "@]"
