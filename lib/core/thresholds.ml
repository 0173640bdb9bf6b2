open Fstream_graph

type t = { fp : int; table : int option array; ep : int }

(* A 62-bit polynomial rolling hash: collisions are astronomically
   unlikely for distinct topologies, and any collision only weakens an
   error check, never soundness of a correctly-used table. *)
let mask = (1 lsl 62) - 1

let mix h x = (((h * 1000003) lxor x) + 0x9e3779b9) land mask

let graph_fingerprint g =
  let h = mix 0 (Graph.num_nodes g) in
  let h = mix h (Graph.num_edges g) in
  Graph.fold_edges g ~init:h ~f:(fun h (e : Graph.edge) ->
      mix (mix (mix (mix h e.id) e.src) e.dst) e.cap)

let of_array g table =
  if Array.length table <> Graph.num_edges g then
    invalid_arg "Thresholds.of_array: length does not match num_edges";
  Array.iter
    (function
      | Some k when k < 1 -> invalid_arg "Thresholds.of_array: threshold < 1"
      | _ -> ())
    table;
  { fp = graph_fingerprint g; table = Array.copy table; ep = 0 }

let epoch t = t.ep
let with_epoch t ep = { t with ep }

let get t i =
  if i < 0 || i >= Array.length t.table then
    invalid_arg "Thresholds.get: edge id out of range";
  t.table.(i)

let to_array t = Array.copy t.table
let compatible t g = t.fp = graph_fingerprint g

let check t g =
  if not (compatible t g) then
    invalid_arg
      "Thresholds: table was computed for a different graph (fingerprint \
       mismatch)"
