open Fstream_graph
open Fstream_spdag
open Fstream_ladder

type t = int list array

let half_src (e : Graph.edge) = 2 * e.id
let half_dst (e : Graph.edge) = (2 * e.id) + 1
let twin h = h lxor 1

let tail g h =
  let e = Graph.edge g (h / 2) in
  if h land 1 = 0 then e.src else e.dst

(* Embed an SP tree drawn left-to-right: parallel components stack
   vertically (first on top), series components chain through their
   junction. Internal vertex rotations are written to [rot]; the
   returned bundles list the tree's half-edges at its source and sink
   in top-to-bottom order. At a junction, counter-clockwise order is
   the outgoing (east) bundle bottom-to-top followed by the incoming
   (west) bundle top-to-bottom. *)
let rec embed_sp rot (t : Sp_tree.t) =
  match t.shape with
  | Leaf e -> ([ half_src e ], [ half_dst e ])
  | Series (a, b) ->
    let a_src, a_snk = embed_sp rot a in
    let b_src, b_snk = embed_sp rot b in
    rot.(a.sink) <- List.rev b_src @ a_snk;
    (a_src, b_snk)
  | Parallel (a, b) ->
    let a_src, a_snk = embed_sp rot a in
    let b_src, b_snk = embed_sp rot b in
    (a_src @ b_src, a_snk @ b_snk)

(* Embed a ladder drawn as a band: left rail along the top, right rail
   along the bottom, cross-links as verticals in between (non-crossing
   keeps them disjoint). Returns the CCW-ready source part (east-facing)
   and sink part (west-facing) of the block. *)
let embed_ladder rot (lad : Ladder.t) =
  let seg_l = Array.map (embed_sp rot) lad.Ladder.left_segments in
  let seg_r = Array.map (embed_sp rot) lad.Ladder.right_segments in
  let rung_bundles =
    Array.map (fun r -> embed_sp rot r.Ladder.cross) lad.Ladder.rungs
  in
  let rungs_at side v =
    List.filter
      (fun i ->
        side lad.Ladder.rungs.(i) = v)
      (List.init (Array.length lad.Ladder.rungs) Fun.id)
  in
  (* Top-rail vertex: east bundle (next segment, CCW bottom-to-top),
     west bundle (previous segment, top-to-bottom), then the rungs
     hanging south, west-to-east = in rung order. A rung contributes
     its source bundle when it leaves the vertex, its sink bundle when
     it arrives; both keep their intrinsic CCW order under the
     quarter-turn into the vertical. *)
  Array.iteri
    (fun j u ->
      let _, prev_snk = seg_l.(j) in
      let next_src, _ = seg_l.(j + 1) in
      let rung_part =
        List.concat_map
          (fun i ->
            let src, snk = rung_bundles.(i) in
            if lad.Ladder.rungs.(i).Ladder.left_to_right then List.rev src
            else snk)
          (rungs_at (fun r -> r.Ladder.left_end) u)
      in
      rot.(u) <- List.rev next_src @ prev_snk @ rung_part)
    lad.Ladder.left_nodes;
  (* Bottom-rail vertex: east bundle, rungs pointing north east-to-west
     = decreasing rung order, then the west bundle. *)
  Array.iteri
    (fun j z ->
      let _, prev_snk = seg_r.(j) in
      let next_src, _ = seg_r.(j + 1) in
      let rung_part =
        List.concat_map
          (fun i ->
            let src, snk = rung_bundles.(i) in
            if lad.Ladder.rungs.(i).Ladder.left_to_right then snk
            else List.rev src)
          (List.rev (rungs_at (fun r -> r.Ladder.right_end) z))
      in
      rot.(z) <- List.rev next_src @ rung_part @ prev_snk)
    lad.Ladder.right_nodes;
  let s0_src, _ = seg_l.(0) and d0_src, _ = seg_r.(0) in
  let _, sk_snk = seg_l.(Array.length seg_l - 1) in
  let _, dk_snk = seg_r.(Array.length seg_r - 1) in
  (List.rev d0_src @ List.rev s0_src, sk_snk @ dk_snk)

let block_parts rot = function
  | Cs4.Sp_block t ->
    let src, snk = embed_sp rot t in
    (List.rev src, snk)
  | Cs4.Ladder_block lad -> embed_ladder rot lad

let of_cs4 g (cls : Cs4.t) =
  let rot = Array.make (Graph.num_nodes g) [] in
  let pending_snk = ref [] in
  List.iter
    (fun (bsrc, _, b) ->
      let src_part, snk_part = block_parts rot b in
      rot.(bsrc) <- src_part @ !pending_snk;
      pending_snk := snk_part)
    cls.Cs4.blocks;
  rot.(cls.Cs4.sink) <- !pending_snk;
  rot

let of_graph g =
  match Cs4.classify g with
  | Ok cls -> Ok (of_cs4 g cls)
  | Error e -> Error (Format.asprintf "%a" Cs4.pp_failure e)

let faces g (rot : t) =
  let m = Graph.num_edges g in
  (* successor of h in the CCW rotation at its tail *)
  let succ = Array.make (2 * m) (-1) in
  Array.iter
    (fun halves ->
      match halves with
      | [] -> ()
      | first :: _ ->
        let rec go = function
          | [ last ] -> succ.(last) <- first
          | a :: (b :: _ as rest) ->
            succ.(a) <- b;
            go rest
          | [] -> ()
        in
        go halves)
    rot;
  let next h = succ.(twin h) in
  let seen = Array.make (2 * m) false in
  let count = ref 0 in
  for h = 0 to (2 * m) - 1 do
    if not seen.(h) then begin
      incr count;
      let cur = ref h in
      while not seen.(!cur) do
        seen.(!cur) <- true;
        cur := next !cur
      done
    end
  done;
  !count

let euler_ok g rot =
  Graph.num_nodes g - Graph.num_edges g + faces g rot = 2

let check_wellformed g (rot : t) =
  let m = Graph.num_edges g in
  let seen = Array.make (2 * m) false in
  let ok = ref true in
  Array.iteri
    (fun v halves ->
      List.iter
        (fun h ->
          if h < 0 || h >= 2 * m || seen.(h) || tail g h <> v then ok := false
          else seen.(h) <- true)
        halves)
    rot;
  !ok && Array.for_all Fun.id seen
