open Fstream_graph

type super_edge = {
  s_src : Graph.node;
  s_dst : Graph.node;
  s_tree : Sp_tree.t;
}

type failure =
  | Not_two_terminal
  | Irreducible of { remaining_edges : int }

let pp_failure ppf = function
  | Not_two_terminal ->
    Format.fprintf ppf "not a connected two-terminal DAG"
  | Irreducible { remaining_edges } ->
    Format.fprintf ppf
      "not series-parallel (reduction stalled with %d super-edges)"
      remaining_edges

module Iset = Set.Make (Int)

(* Mutable reduction state over block-local node ids [0 .. k-1], so
   every per-call array is sized to the block rather than to the whole
   graph; [glob] maps a local id back to its graph node. Super-edges
   carry the decomposition tree of the subgraph they replace. The
   [pair] index (keyed [src * k + dst]) keeps at most one live
   super-edge per (src, dst), merging parallels eagerly on insertion. *)
type state = {
  glob : Graph.node array;
  live : (int, int * int * Sp_tree.t) Hashtbl.t;
  mutable next_id : int;
  out_s : Iset.t array;
  in_s : Iset.t array;
  out_n : int array;  (* cardinals of [out_s] / [in_s] *)
  in_n : int array;
  pair : (int, int) Hashtbl.t;
  queue : int Queue.t;
}

let pair_key st src dst = (src * Array.length st.glob) + dst

let remove_edge st id =
  let src, dst, _ = Hashtbl.find st.live id in
  Hashtbl.remove st.live id;
  st.out_s.(src) <- Iset.remove id st.out_s.(src);
  st.out_n.(src) <- st.out_n.(src) - 1;
  st.in_s.(dst) <- Iset.remove id st.in_s.(dst);
  st.in_n.(dst) <- st.in_n.(dst) - 1;
  let key = pair_key st src dst in
  if Hashtbl.find_opt st.pair key = Some id then Hashtbl.remove st.pair key

let rec add_edge st src dst tree =
  let key = pair_key st src dst in
  match Hashtbl.find_opt st.pair key with
  | Some other ->
    let _, _, tree' = Hashtbl.find st.live other in
    remove_edge st other;
    add_edge st src dst (Sp_tree.parallel tree' tree)
  | None ->
    let id = st.next_id in
    st.next_id <- id + 1;
    Hashtbl.replace st.live id (src, dst, tree);
    st.out_s.(src) <- Iset.add id st.out_s.(src);
    st.out_n.(src) <- st.out_n.(src) + 1;
    st.in_s.(dst) <- Iset.add id st.in_s.(dst);
    st.in_n.(dst) <- st.in_n.(dst) + 1;
    Hashtbl.replace st.pair key id;
    Queue.add src st.queue;
    Queue.add dst st.queue

let try_series st ~protect v =
  if (not (protect st.glob.(v))) && st.in_n.(v) = 1 && st.out_n.(v) = 1
  then begin
    let ein = Iset.choose st.in_s.(v) and eout = Iset.choose st.out_s.(v) in
    let u, _, t_in = Hashtbl.find st.live ein in
    let _, w, t_out = Hashtbl.find st.live eout in
    remove_edge st ein;
    remove_edge st eout;
    add_edge st u w (Sp_tree.series t_in t_out)
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
  let edges = Array.of_list edges in
  let m = Array.length edges in
  let local, glob = renumber edges in
  let k = Array.length glob in
  let st =
    {
      glob;
      live = Hashtbl.create (2 * m);
      next_id = 0;
      out_s = Array.make k Iset.empty;
      in_s = Array.make k Iset.empty;
      out_n = Array.make k 0;
      in_n = Array.make k 0;
      pair = Hashtbl.create (2 * m);
      queue = Queue.create ();
    }
  in
  Array.iteri
    (fun i e ->
      add_edge st local.(2 * i) local.((2 * i) + 1) (Sp_tree.leaf e))
    edges;
  while not (Queue.is_empty st.queue) do
    try_series st ~protect (Queue.pop st.queue)
  done;
  Hashtbl.fold
    (fun _ (src, dst, s_tree) acc ->
      { s_src = glob.(src); s_dst = glob.(dst); s_tree } :: acc)
    st.live []

let recognize_block ~source ~sink edges =
  if edges = [] then Error Not_two_terminal
  else
    match reduce ~protect:(fun v -> v = source || v = sink) edges with
    | [ { s_src; s_dst; s_tree } ] when s_src = source && s_dst = sink ->
      Ok s_tree
    | rest -> Error (Irreducible { remaining_edges = List.length rest })

let recognize g =
  match Topo.is_two_terminal g with
  | None -> Error Not_two_terminal
  | Some (x, y) when x = y -> Error Not_two_terminal
  | Some (x, y) ->
    if not (Topo.connected g) then Error Not_two_terminal
    else recognize_block ~source:x ~sink:y (Graph.edges g)

let is_sp g = Result.is_ok (recognize g)
