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
      block_ids : int list;
      reason : string;
    }

let pp_failure ppf = function
  | Not_two_terminal -> Format.fprintf ppf "not a connected two-terminal DAG"
  | Bad_block { block_source; block_sink; reason; _ } ->
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
        let block_ids = List.map (fun (e : Graph.edge) -> e.id) edges in
        match classify_block ~source:bsrc ~sink:bsnk edges with
        | Ok b -> go ((bsrc, bsnk, b) :: acc) (block_ids :: ids) rest
        | Error reason ->
          Error
            (Bad_block
               { block_source = bsrc; block_sink = bsnk; block_ids; reason }))
    in
    go [] [] (Articulation.serial_blocks ~order g)
  | _ -> Error Not_two_terminal

let is_cs4 g = Result.is_ok (classify g)

let is_multi_source c = not (Cycles.is_cs4_cycle c)

let block_witnesses ?max_cycles g ~block_ids ~limit =
  Cycles.search ?max_cycles ~within:block_ids g ~limit is_multi_source

let is_cs4_brute g =
  match Topo.is_two_terminal g with
  | Some (x, y) when x <> y -> (
    match Cycles.search g ~limit:1 is_multi_source with
    | [], true -> invalid_arg "Cs4.is_cs4_brute: cycle budget exhausted"
    | found, _ -> found = [])
  | _ -> false
