type oriented = { edge : Graph.edge; fwd : bool }

type t = oriented list

exception Budget_exceeded of int

type run = {
  run_source : Graph.node;
  run_sink : Graph.node;
  run_edges : Graph.edge list;
}

(* Enumeration: for each start vertex s, DFS over the undirected view
   visiting only vertices > s (so each cycle is found from its minimal
   vertex), recording a cycle when an edge returns to s. Intermediate
   vertices are marked visited, which keeps paths simple; the only edge
   that could repeat is an immediate backtrack, excluded by comparing
   edge ids. Each cycle is discovered once per direction; a canonical
   sorted-edge-id key deduplicates. *)
let enumerate ?(max_cycles = 10_000_000) g =
  let n = Graph.num_nodes g in
  let visited = Array.make n false in
  let seen = Hashtbl.create 997 in
  let results = ref [] in
  let found = ref 0 in
  let record path_rev =
    let cycle = List.rev path_rev in
    let key = List.sort compare (List.map (fun o -> o.edge.Graph.id) cycle) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      incr found;
      if !found > max_cycles then raise (Budget_exceeded max_cycles);
      results := cycle :: !results
    end
  in
  for s = 0 to n - 1 do
    let rec extend v last_edge path_rev =
      List.iter
        (fun (e : Graph.edge) ->
          if e.id <> last_edge then begin
            let w = Graph.other_endpoint e v in
            let o = { edge = e; fwd = e.src = v } in
            if w = s then begin
              if path_rev <> [] then record (o :: path_rev)
            end
            else if w > s && not visited.(w) then begin
              visited.(w) <- true;
              extend w e.id (o :: path_rev);
              visited.(w) <- false
            end
          end)
        (Graph.incident_edges g v)
    in
    extend s (-1) []
  done;
  List.rev !results

let count ?max_cycles g = List.length (enumerate ?max_cycles g)

let vertices c =
  match c with
  | [] -> invalid_arg "Cycles.vertices: empty cycle"
  | first :: _ ->
    let v0 = if first.fwd then first.edge.src else first.edge.dst in
    let rec walk v = function
      | [] -> []
      | o :: rest -> v :: walk (Graph.other_endpoint o.edge v) rest
    in
    walk v0 c

(* Maximal directed runs: contiguous cyclic blocks of equal [fwd]. A
   forward block traversed over positions i..j is directed v_i -> v_j+1;
   a backward block is directed v_j+1 -> v_i. A DAG admits no fully
   directed cycle, so there are always >= 2 blocks. *)
let blocks c =
  let arr = Array.of_list c in
  let m = Array.length arr in
  let flag i = arr.(i mod m).fwd in
  let start =
    let rec find i =
      if i >= m then invalid_arg "Cycles.runs: directed cycle"
      else if flag i <> flag (i + m - 1) then i
      else find (i + 1)
    in
    find 0
  in
  let spans = ref [] in
  let i = ref start in
  let consumed = ref 0 in
  while !consumed < m do
    let j = ref !i in
    while !consumed < m && flag !j = flag !i do
      incr j;
      incr consumed
    done;
    spans := (!i mod m, !j - !i, flag !i) :: !spans;
    i := !j
  done;
  (arr, Array.of_list (List.rev !spans))

let runs c =
  let arr, spans = blocks c in
  let m = Array.length arr in
  let verts = Array.of_list (vertices c) in
  Array.map
    (fun (i, len, fwd) ->
      let edges = List.init len (fun k -> arr.((i + k) mod m).edge) in
      let v_start = verts.(i) and v_end = verts.((i + len) mod m) in
      if fwd then { run_source = v_start; run_sink = v_end; run_edges = edges }
      else
        { run_source = v_end; run_sink = v_start; run_edges = List.rev edges })
    spans

let opposite_run c =
  let _, spans = blocks c in
  let k = Array.length spans in
  Array.mapi
    (fun t (_, _, fwd) ->
      (* A forward run's directed source is the boundary it shares with
         the previous block; a backward run's is shared with the next. *)
      if fwd then (t + k - 1) mod k else (t + 1) mod k)
    spans

let cycle_sources c =
  List.sort_uniq compare
    (Array.to_list (Array.map (fun r -> r.run_source) (runs c)))

let cycle_sinks c =
  List.sort_uniq compare
    (Array.to_list (Array.map (fun r -> r.run_sink) (runs c)))

let is_cs4_cycle c = Array.length (runs c) = 2

let run_caps r =
  List.fold_left (fun acc (e : Graph.edge) -> acc + e.cap) 0 r.run_edges

let run_hops r = List.length r.run_edges
