open Fstream_graph
open Fstream_spdag

type block =
  | Sp_block of Sp_tree.t
  | Ladder_block of Ladder.t

type t = {
  source : Graph.node;
  sink : Graph.node;
  blocks : (Graph.node * Graph.node * block) list;
  block_ids : int list list;
}

type failure =
  | Not_two_terminal
  | Bad_block of {
      block_source : Graph.node;
      block_sink : Graph.node;
      reason : string;
    }

let pp_failure ppf = function
  | Not_two_terminal -> Format.fprintf ppf "not a connected two-terminal DAG"
  | Bad_block { block_source; block_sink; reason } ->
    Format.fprintf ppf "block %d..%d is neither SP nor an SP-ladder: %s"
      block_source block_sink reason

(* One reduction serves both recognizers: a single surviving super-edge
   means SP, else the core must be a ladder. A one-edge block is its leaf. *)
let classify_block ~source ~sink = function
  | [ e ] -> Ok (Sp_block (Sp_tree.leaf e))
  | edges -> (
    match
      Sp_recognize.reduce ~protect:(fun v -> v = source || v = sink) edges
    with
    | [ { s_src; s_dst; s_tree } ] when s_src = source && s_dst = sink ->
      Ok (Sp_block s_tree)
    | core ->
      Result.map (fun l -> Ladder_block l) (Ladder.of_core ~source ~sink core))

let classify ?order g =
  let order = match order with Some _ -> order | None -> Topo.order g in
  match (order, Topo.dag_terminals g) with
  | Some order, Some (x, y) when x <> y ->
    let rec go acc ids = function
      | [] ->
        Ok
          {
            source = x;
            sink = y;
            blocks = List.rev acc;
            block_ids = List.rev ids;
          }
      | (bsrc, bsnk, edges) :: rest -> (
        match classify_block ~source:bsrc ~sink:bsnk edges with
        | Ok b ->
          let id (e : Graph.edge) = e.id in
          go ((bsrc, bsnk, b) :: acc) (List.map id edges :: ids) rest
        | Error reason ->
          Error (Bad_block { block_source = bsrc; block_sink = bsnk; reason }))
    in
    go [] [] (Articulation.serial_blocks ~order g)
  | _ -> Error Not_two_terminal

let is_cs4 g = Result.is_ok (classify g)

let is_multi_source c = not (Cycles.is_cs4_cycle c)

let bad_cycle_witness ?max_cycles g = Cycles.find ?max_cycles g is_multi_source

let block_witnesses ?max_cycles g ~block_source ~block_sink ~limit =
  let _, _, within =
    List.find
      (fun (s, t, _) -> s = block_source && t = block_sink)
      (Articulation.serial_blocks g)
  in
  Cycles.search ?max_cycles ~within g ~limit is_multi_source

let is_cs4_brute ?max_cycles g =
  match Topo.is_two_terminal g with
  | Some (x, y) when x <> y -> Option.is_none (bad_cycle_witness ?max_cycles g)
  | _ -> false
