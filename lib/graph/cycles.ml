type oriented = { edge : Graph.edge; fwd : bool }

type t = oriented list

exception Budget_exceeded of int

type run = {
  run_source : Graph.node;
  run_sink : Graph.node;
  run_edges : Graph.edge list;
}

(* Traversal: for each start vertex s, DFS over the undirected view
   visiting only vertices > s (so each cycle is found from its minimal
   vertex), reporting a cycle when an edge returns to s. Intermediate
   vertices are marked visited, which keeps paths simple; the only edge
   that could repeat is an immediate backtrack, excluded by comparing
   edge ids.

   Every simple cycle lies inside one biconnected block, so once the
   DFS from s has taken its first edge, in block b, it follows only
   edges of block b, and never a bridge: a pruned subtree could record
   no cycle, and the visited marks are restored on backtrack, so the
   reported sequence is that of the unpruned search. The edges of each
   node are grouped by block (increasing id within a group) and
   [entry] locates the group of an edge's block at either endpoint, so
   a step scans only the current block's edges.

   Each cycle is met twice from s, once per direction, as the two
   orientations start with its two edges at s. The first edges at s
   are tried in increasing id order, so the orientation met first is
   the one whose first edge has the smaller id; only that one is
   reported.

   [within] replaces the block partition by one group holding the given
   edge ids: the DFS then follows only those, and reports exactly the
   cycles all of whose edges lie among them, in the order of the whole
   traversal (the relative order of first edges at s and of the edges
   scanned at each step is unchanged). Given one biconnected block,
   that is the block's cycles, with no biconnected-components pass. *)

let traverse ~max_cycles ?within g f =
  let n = Graph.num_nodes g in
  let block = Array.make (Graph.num_edges g) (-1) in
  (match within with
  | None ->
    List.iteri
      (fun b comp ->
        match comp with
        | [ _ ] -> ()
        | es -> List.iter (fun (e : Graph.edge) -> block.(e.id) <- b) es)
      (Articulation.biconnected_components g)
  | Some ids -> List.iter (fun id -> block.(id) <- 0) ids);
  let by_block (a : Graph.edge) (b : Graph.edge) =
    compare block.(a.id) block.(b.id)
  in
  let grouped =
    Array.init n (fun v ->
        Array.of_list
          (List.stable_sort by_block
             (List.filter
                (fun (e : Graph.edge) -> block.(e.id) >= 0)
                (Graph.incident_edges g v))))
  in
  (* [entry.(slot e v)]: where edge [e]'s block group starts in
     [grouped.(v)], for either endpoint [v] of [e]. *)
  let slot (e : Graph.edge) v = (2 * e.id) + if e.src = v then 0 else 1 in
  let entry = Array.make (2 * Graph.num_edges g) 0 in
  Array.iteri
    (fun v (arr : Graph.edge array) ->
      let start = ref 0 in
      Array.iteri
        (fun i (e : Graph.edge) ->
          if i > 0 && block.(arr.(i - 1).id) <> block.(e.id) then start := i;
          entry.(slot e v) <- !start)
        arr)
    grouped;
  let visited = Array.make n false in
  let found = ref 0 in
  for s = 0 to n - 1 do
    let report first path_rev =
      match path_rev with
      | closing :: _ when first.edge.id < closing.edge.id ->
        incr found;
        if !found > max_cycles then raise (Budget_exceeded max_cycles);
        f (List.rev path_rev)
      | _ -> ()
    in
    (* Extend a path that entered [v] by edge [last] of block [b]. *)
    let rec extend b first v (last : Graph.edge) path_rev =
      let arr = grouped.(v) in
      let rec scan i =
        if i < Array.length arr && block.(arr.(i).id) = b then begin
          let e = arr.(i) in
          if e.id <> last.id then begin
            let w = Graph.other_endpoint e v in
            let o = { edge = e; fwd = e.src = v } in
            if w = s then report first (o :: path_rev)
            else if w > s && not visited.(w) then begin
              visited.(w) <- true;
              extend b first w e (o :: path_rev);
              visited.(w) <- false
            end
          end;
          scan (i + 1)
        end
      in
      scan entry.(slot last v)
    in
    List.iter
      (fun (e : Graph.edge) ->
        let w = Graph.other_endpoint e s in
        if block.(e.id) >= 0 && w > s then begin
          let o = { edge = e; fwd = e.src = s } in
          visited.(w) <- true;
          extend block.(e.id) o w e [ o ];
          visited.(w) <- false
        end)
      (Graph.incident_edges g s)
  done

let default_budget = 10_000_000

let fold ?(max_cycles = default_budget) g ~init ~f =
  let acc = ref init in
  traverse ~max_cycles g (fun c -> acc := f !acc c);
  !acc

let search ?(max_cycles = default_budget) ?within g ~limit p =
  let exception Enough in
  let found = ref [] and k = ref 0 in
  let keep c =
    if p c then begin
      found := c :: !found;
      incr k;
      if !k = limit then raise Enough
    end
  in
  let exhausted =
    if limit <= 0 then false
    else
      match traverse ~max_cycles ?within g keep with
      | () | (exception Enough) -> false
      | exception Budget_exceeded _ -> true
  in
  (List.rev !found, exhausted)

let enumerate ?max_cycles g =
  List.rev (fold ?max_cycles g ~init:[] ~f:(fun acc c -> c :: acc))

let count ?max_cycles g = fold ?max_cycles g ~init:0 ~f:(fun k _ -> k + 1)

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
