open Fstream_graph
open Fstream_spdag

type rung = {
  left_end : Graph.node;
  right_end : Graph.node;
  cross : Sp_tree.t;
  left_to_right : bool;
}

type t = {
  source : Graph.node;
  sink : Graph.node;
  left_nodes : Graph.node array;
  right_nodes : Graph.node array;
  left_segments : Sp_tree.t array;
  right_segments : Sp_tree.t array;
  rungs : rung array;
}

(* Validating walk over the skeleton (see .mli). State: the current
   frontier vertex on each rail. Non-crossing guarantees the next
   cross-link is always incident to the frontier, so every step either
   consumes a rung at the frontier or advances a rail whose frontier
   vertex has no unconsumed cross-links left. The core's nodes get
   local ids; each keeps the count and the xor of its unconsumed
   super-edges (the xor is the edge when the count is one). *)
let of_core ~source ~sink core =
  let arr = Array.of_list core in
  let m = Array.length arr in
  let exception Reject of string in
  let reject msg = raise (Reject msg) in
  try
    if m < 5 then reject "too small to be a ladder";
    let local = Hashtbl.create (2 * m) in
    let lid v = try Hashtbl.find local v with Not_found -> -1 in
    let add v = if lid v < 0 then Hashtbl.add local v (Hashtbl.length local) in
    Array.iter (fun (e : Sp_recognize.super_edge) -> add e.s_src; add e.s_dst)
      arr;
    let k = Hashtbl.length local in
    let deg = Array.make k 0 and xor = Array.make k 0 in
    let consumed = Array.make m false and pair = Hashtbl.create (2 * m) in
    let key u v = (min (lid u) (lid v) * k) + max (lid u) (lid v) in
    let touch i v d =
      deg.(lid v) <- deg.(lid v) + d;
      xor.(lid v) <- xor.(lid v) lxor i
    in
    Array.iteri
      (fun i (e : Sp_recognize.super_edge) ->
        touch i e.s_src 1;
        touch i e.s_dst 1;
        if Hashtbl.mem pair (key e.s_src e.s_dst) then
          reject "parallel super-edges in core";
        Hashtbl.replace pair (key e.s_src e.s_dst) i)
      arr;
    let count v = if lid v < 0 then 0 else deg.(lid v) in
    (* a terminal's two super-edges in index order, before any is used *)
    let two_at v =
      let at i = arr.(i).s_src = v || arr.(i).s_dst = v in
      if count v <> 2 then [] else List.filter at (List.init m Fun.id)
    in
    let used = ref 0 in
    let use i =
      let e = arr.(i) in
      consumed.(i) <- true;
      touch i e.s_src (-1);
      touch i e.s_dst (-1);
      incr used;
      e
    in
    let lefts = ref [] and rights = ref [] in
    let lsegs = ref [] and rsegs = ref [] in
    let rungs = ref [] in
    let visited = Array.make k false in
    let visit v =
      if lid v >= 0 && visited.(lid v) then reject "rail revisits a vertex";
      if lid v >= 0 then visited.(lid v) <- true
    in
    let take_rung l r =
      match Hashtbl.find_opt pair (key l r) with
      | None -> reject "missing cross-link at rail frontier"
      | Some i ->
        if consumed.(i) then reject "cross-link already consumed";
        let e = use i in
        rungs :=
          {
            left_end = l;
            right_end = r;
            cross = e.s_tree;
            left_to_right = e.s_src = l;
          }
          :: !rungs
    in
    (* Advance a rail: its frontier's single unconsumed edge must leave
       the frontier along the rail. *)
    let advance v =
      match count v with
      | 1 ->
        let i = xor.(lid v) in
        let e = arr.(i) in
        if e.s_src <> v then reject "rail edge directed against the rail";
        ignore (use i);
        (e.s_dst, e.s_tree)
      | _ -> reject "rail frontier degree mismatch"
    in
    (* Terminal degrees: X has exactly its two rail heads, Y its two
       rail tails; cross-links never touch the terminals. *)
    let rail_head i =
      let e = arr.(i) in
      if e.Sp_recognize.s_src <> source then reject "edge into the source";
      let e = use i in
      (e.s_dst, e.s_tree)
    in
    let y_edges = two_at sink in
    (match y_edges with
    | [ _; _ ] ->
      if List.exists (fun i -> arr.(i).Sp_recognize.s_src = sink) y_edges
      then reject "edge out of the sink"
    | _ -> reject "sink degree is not 2");
    visit source;
    let (a, seg_a), (b, seg_b) =
      match two_at source with
      | [ i; j ] -> (rail_head i, rail_head j)
      | _ -> reject "source degree is not 2"
    in
    if a = sink || b = sink then reject "rail is trivial";
    visit a;
    visit b;
    lefts := [ a ];
    rights := [ b ];
    lsegs := [ seg_a ];
    rsegs := [ seg_b ];
    take_rung a b;
    let rec walk l r =
      let cl = count l and cr = count r in
      if cl >= 2 && cr >= 2 then reject "cross-links cross"
      else if cl = 0 || cr = 0 then reject "rail frontier exhausted"
      else if cl >= 2 then begin
        (* More rungs at l: the right rail advances to meet them. *)
        let r', seg = advance r in
        if r' = sink then reject "cross-links left dangling";
        if r' = l then reject "rails converge";
        visit r';
        rights := r' :: !rights;
        rsegs := seg :: !rsegs;
        take_rung l r';
        walk l r'
      end
      else if cr >= 2 then begin
        let l', seg = advance l in
        if l' = sink then reject "cross-links left dangling";
        if l' = r then reject "rails converge";
        visit l';
        lefts := l' :: !lefts;
        lsegs := seg :: !lsegs;
        take_rung l' r;
        walk l' r
      end
      else begin
        let l', seg_l = advance l and r', seg_r = advance r in
        if l' = sink && r' = sink then begin
          lsegs := seg_l :: !lsegs;
          rsegs := seg_r :: !rsegs;
          if !used <> m then reject "unreachable super-edges"
        end
        else if l' = sink || r' = sink then
          reject "rails reach the sink at different levels"
        else begin
          if l' = r' then reject "rails converge";
          visit l';
          visit r';
          lefts := l' :: !lefts;
          rights := r' :: !rights;
          lsegs := seg_l :: !lsegs;
          rsegs := seg_r :: !rsegs;
          take_rung l' r';
          walk l' r'
        end
      end
    in
    walk a b;
    Ok
      {
        source;
        sink;
        left_nodes = Array.of_list (List.rev !lefts);
        right_nodes = Array.of_list (List.rev !rights);
        left_segments = Array.of_list (List.rev !lsegs);
        right_segments = Array.of_list (List.rev !rsegs);
        rungs = Array.of_list (List.rev !rungs);
      }
  with Reject msg -> Error msg

let recognize_block ~source ~sink edges =
  if edges = [] then Error "empty block"
  else
    match
      Sp_recognize.reduce ~protect:(fun v -> v = source || v = sink) edges
    with
    | [ { s_src; s_dst; _ } ] when s_src = source && s_dst = sink ->
      Error "series-parallel"
    | core -> of_core ~source ~sink core

let num_rungs t = Array.length t.rungs

let core_edges t =
  Array.length t.left_segments + Array.length t.right_segments
  + Array.length t.rungs

let constituents t =
  let tag prefix i tree = (Printf.sprintf "%s%d" prefix i, tree) in
  List.concat
    [
      List.mapi (tag "S") (Array.to_list t.left_segments);
      List.mapi (tag "D") (Array.to_list t.right_segments);
      List.mapi (fun i r -> tag "K" (i + 1) r.cross) (Array.to_list t.rungs);
    ]

let edges t =
  List.concat_map (fun (_, tree) -> Sp_tree.edges tree) (constituents t)

let refresh g t =
  let sp = Sp_tree.refresh g in
  {
    t with
    left_segments = Array.map sp t.left_segments;
    right_segments = Array.map sp t.right_segments;
    rungs = Array.map (fun r -> { r with cross = sp r.cross }) t.rungs;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>ladder: source %d, sink %d, %d rungs" t.source
    t.sink (num_rungs t);
  let sep ppf () = Format.pp_print_string ppf " " in
  Format.fprintf ppf "@,  left rail: %a"
    (Format.pp_print_list ~pp_sep:sep Format.pp_print_int)
    (Array.to_list t.left_nodes);
  Format.fprintf ppf "@,  right rail: %a"
    (Format.pp_print_list ~pp_sep:sep Format.pp_print_int)
    (Array.to_list t.right_nodes);
  Array.iter
    (fun r ->
      Format.fprintf ppf "@,  rung %d %s %d" r.left_end
        (if r.left_to_right then "->" else "<-")
        r.right_end)
    t.rungs;
  Format.fprintf ppf "@]"
