open Fstream_graph
open Fstream_core
module Event = Fstream_obs.Event
module Sink = Fstream_obs.Sink

type t = {
  fired : int array;  (* per original node *)
  table : Engine.kernel array;  (* per fused node *)
}

let rec mem_int (x : int) = function
  | [] -> false
  | y :: rest -> x = y || mem_int x rest

(* [src] maps every original edge to its source node, [single] every
   fused edge [fe] to the list [[orig_edge fe]]; both are shared by all
   compound kernels of a plan. *)
let compound ?sink (fusion : Fusion.t) ~src ~single (fired : int array)
    orig_kernels f =
  let og = fusion.original in
  let mem = fusion.members.(f) in
  let k = Array.length mem in
  let subs = Array.map orig_kernels mem in
  (* Non-tail members have exactly one out-edge (the fusability rule),
     and it is the collapsed channel to the next member; [link_got] is
     the next member's [got], built once. *)
  let link =
    Array.init (k - 1) (fun i -> (Graph.out_edge_ids og mem.(i)).(0))
  in
  let link_got = Array.map (fun e -> [ e ]) link in
  let rec validate v = function
    | [] -> ()
    | id :: rest ->
      if id < 0 || id >= Array.length src || src.(id) <> v then
        invalid_arg
          (Printf.sprintf "Fused: kernel of node %d returned edge %d" v id);
      validate v rest
  in
  (* Walk the chain with the data in a local: each hop is a function
     call, not a channel round-trip. *)
  let rec step i seq got =
    let v = mem.(i) in
    fired.(v) <- fired.(v) + 1;
    (match sink with
    | Some s -> Sink.emit s (Event.Subnode_fired { node = f; sub = v; seq })
    | None -> ());
    let out = subs.(i) ~seq ~got in
    validate v out;
    if i = k - 1 then out
    else if mem_int link.(i) out then step (i + 1) seq link_got.(i)
    else []
  in
  (* The tail's kept edges, in fused ids. A kernel that keeps the same
     edges returns the same list again (the {!Filters} kernels do), so
     the last translation is kept and reused while its input repeats. *)
  let last_out = ref [] and last_fused = ref [] in
  let to_fused out =
    if out == !last_out then !last_fused
    else begin
      let fused = List.map (fun oe -> fusion.edge_of.(oe)) out in
      last_out := out;
      last_fused := fused;
      fused
    end
  in
  fun ~seq ~got ->
    let got0 =
      match got with
      | [ fe ] -> single.(fe)
      | got -> List.map (fun fe -> fusion.orig_edge.(fe)) got
    in
    to_fused (step 0 seq got0)

let make ?sink (fusion : Fusion.t) orig_kernels =
  let sink =
    match sink with Some s when Sink.is_null s -> None | other -> other
  in
  let og = fusion.original in
  let src = Array.init (Graph.num_edges og) (fun e -> (Graph.edge og e).src) in
  let single = Array.map (fun oe -> [ oe ]) fusion.orig_edge in
  let fired = Array.make (Graph.num_nodes og) 0 in
  let table =
    Array.init (Graph.num_nodes fusion.graph) (fun f ->
        compound ?sink fusion ~src ~single fired orig_kernels f)
  in
  { fired; table }

let kernels t f = t.table.(f)

let fired t = Array.copy t.fired
