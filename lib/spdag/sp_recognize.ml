open Fstream_graph

type super_edge = {
  s_src : Graph.node;
  s_dst : Graph.node;
  s_tree : Sp_tree.t;
}

type failure =
  | Not_two_terminal
  | Irreducible of { remaining_edges : int }

(* Mutable reduction state over block-local node ids [0 .. k-1] and
   super-edge ids (one per leaf and per merge: fewer than 2m), sized to
   the block, never to the whole graph; [glob] maps a local id back to
   its graph node. Super-edge [id] replaces a subgraph with tree
   [tree.(id)]. A node keeps the count and the xor of its live in- and
   out-edge ids, so a count of one names the edge. [pair] (keyed
   [src * k + dst]) keeps one live super-edge per (src, dst), merging
   parallels eagerly; [live] only orders the survivors. *)
type state = {
  glob : Graph.node array;
  live : (int, unit) Hashtbl.t;
  src : int array;
  dst : int array;
  tree : Sp_tree.t array;
  out_n : int array;
  in_n : int array;
  out_x : int array;
  in_x : int array;
  pair : (int, int) Hashtbl.t;
  queue : int array;  (* FIFO: super-edge [id] enqueues its ends at [2 * id] *)
  mutable tail : int;
}

let pair_key st src dst = (src * Array.length st.glob) + dst

let link st id sign =
  let s = st.src.(id) and d = st.dst.(id) in
  st.out_n.(s) <- st.out_n.(s) + sign;
  st.out_x.(s) <- st.out_x.(s) lxor id;
  st.in_n.(d) <- st.in_n.(d) + sign;
  st.in_x.(d) <- st.in_x.(d) lxor id

let remove_edge st id =
  Hashtbl.remove st.live id;
  link st id (-1);
  let key = pair_key st st.src.(id) st.dst.(id) in
  if Hashtbl.find_opt st.pair key = Some id then Hashtbl.remove st.pair key

let rec add_edge st src dst tree =
  let key = pair_key st src dst in
  match Hashtbl.find_opt st.pair key with
  | Some other ->
    remove_edge st other;
    add_edge st src dst (Sp_tree.parallel st.tree.(other) tree)
  | None ->
    let id = st.tail / 2 in
    Hashtbl.replace st.live id ();
    st.src.(id) <- src;
    st.dst.(id) <- dst;
    st.tree.(id) <- tree;
    link st id 1;
    Hashtbl.replace st.pair key id;
    st.queue.(st.tail) <- src;
    st.queue.(st.tail + 1) <- dst;
    st.tail <- st.tail + 2

let try_series st ~protect v =
  if (not (protect st.glob.(v))) && st.in_n.(v) = 1 && st.out_n.(v) = 1
  then begin
    let ein = st.in_x.(v) and eout = st.out_x.(v) in
    remove_edge st ein;
    remove_edge st eout;
    add_edge st st.src.(ein) st.dst.(eout)
      (Sp_tree.series st.tree.(ein) st.tree.(eout))
  end

(* Dense renumbering without a graph-sized table: sort the endpoint
   slots [node * 2m + slot] (slot [2i] is edge i's source, [2i + 1] its
   destination) and hand out local ids in node order. Returns the local
   endpoints per slot and the local-to-graph map. *)
let renumber edges =
  let m = Array.length edges in
  let slots = 2 * m in
  let keys = Array.make slots 0 in
  Array.iteri
    (fun i (e : Graph.edge) ->
      keys.(2 * i) <- (e.src * slots) + (2 * i);
      keys.((2 * i) + 1) <- (e.dst * slots) + (2 * i) + 1)
    edges;
  Array.stable_sort Int.compare keys;
  let local = Array.make slots 0 and glob = Array.make slots 0 in
  let k = ref 0 in
  Array.iteri
    (fun j key ->
      let v = key / slots in
      if j = 0 || v <> keys.(j - 1) / slots then begin
        glob.(!k) <- v;
        incr k
      end;
      local.(key mod slots) <- !k - 1)
    keys;
  (local, Array.sub glob 0 !k)

let reduce ~protect edges =
  match Array.of_list edges with
  | [||] -> []
  | edges ->
    let m = Array.length edges in
    let local, glob = renumber edges in
    let k = Array.length glob in
    let ids = 2 * m in
    let st =
      {
        glob;
        live = Hashtbl.create ids;
        src = Array.make ids 0;
        dst = Array.make ids 0;
        tree = Array.make ids (Sp_tree.leaf edges.(0));
        out_n = Array.make k 0;
        in_n = Array.make k 0;
        out_x = Array.make k 0;
        in_x = Array.make k 0;
        pair = Hashtbl.create ids;
        queue = Array.make (2 * ids) 0;
        tail = 0;
      }
    in
    Array.iteri
      (fun i e ->
        add_edge st local.(2 * i) local.((2 * i) + 1) (Sp_tree.leaf e))
      edges;
    let head = ref 0 in
    while !head < st.tail do
      incr head;
      try_series st ~protect st.queue.(!head - 1)
    done;
    Hashtbl.fold
      (fun id () acc ->
        { s_src = glob.(st.src.(id)); s_dst = glob.(st.dst.(id));
          s_tree = st.tree.(id) }
        :: acc)
      st.live []

let recognize g =
  match Topo.is_two_terminal g with
  | Some (x, y) when x <> y -> (
    match reduce ~protect:(fun v -> v = x || v = y) (Graph.edges g) with
    | [ { s_src; s_dst; s_tree } ] when s_src = x && s_dst = y -> Ok s_tree
    | rest -> Error (Irreducible { remaining_edges = List.length rest }))
  | _ -> Error Not_two_terminal

let is_sp g = Result.is_ok (recognize g)
