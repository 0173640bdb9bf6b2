open Fstream_graph
open Fstream_ladder

type reroute = {
  deleted : Graph.node * Graph.node;
  via : Graph.node;
  added : (Graph.node * Graph.node) option;
}

type t = {
  graph : Graph.t;
  reroutes : reroute list;
  added_edges : int;
  deleted_edges : int;
}

(* One rewrite step: given a witness cycle with multiple sources, find a
   single-edge run [s -> t] whose source-adjacent run ends at a relay
   vertex [via] such that the relay channel [via -> t] keeps the graph
   acyclic; delete [s -> t] and ensure [via -> t] exists. *)
let rewrite_step g cycle =
  let runs = Cycles.runs cycle in
  let opposite = Cycles.opposite_run cycle in
  let has_edge u v =
    List.exists (fun (e : Graph.edge) -> e.dst = v) (Graph.out_edges g u)
  in
  let candidates =
    List.filter_map
      (fun i ->
        let r = runs.(i) in
        match r.Cycles.run_edges with
        | [ e ] ->
          let via = runs.(opposite.(i)).Cycles.run_sink in
          let t = r.Cycles.run_sink in
          if via = t then None
          else if (Topo.reachable g t).(via) then None
            (* a relay via -> t would close a directed cycle *)
          else Some (e, via, t, has_edge via t)
        | _ -> None)
      (List.init (Array.length runs) Fun.id)
  in
  (* Prefer rewrites that reuse an existing relay channel. *)
  let candidates =
    List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a) candidates
  in
  match candidates with
  | [] -> None
  | (e, via, t, relay_exists) :: _ ->
    let edges =
      List.filter_map
        (fun (e' : Graph.edge) ->
          if e'.id = e.Graph.id then None else Some (e'.src, e'.dst, e'.cap))
        (Graph.edges g)
    in
    let edges = if relay_exists then edges else edges @ [ (via, t, e.Graph.cap) ] in
    (* one channel out, at most one of its capacity in, [via <> t]: no
       self-loop, and the capacities cannot sum past the original's *)
    let g' = Graph.make ~nodes:(Graph.num_nodes g) edges in
    Some
      ( g',
        {
          deleted = (e.Graph.src, e.Graph.dst);
          via;
          added = (if relay_exists then None else Some (via, t));
        } )

let repair ?max_cycles g =
  let budget = 4 * Graph.num_edges g in
  match Topo.is_two_terminal g with
  | None -> Error "not a connected two-terminal DAG"
  | Some _ ->
    let rec loop g reroutes rounds =
      match Cs4.classify g with
      | Ok _ ->
        Ok
          {
            graph = g;
            reroutes = List.rev reroutes;
            added_edges =
              List.length
                (List.filter (fun r -> r.added <> None) reroutes);
            deleted_edges = List.length reroutes;
          }
      | Error _ when rounds >= budget ->
        Error "repair did not converge within its round budget"
      | Error Cs4.Not_two_terminal -> Error "not a connected two-terminal DAG"
      | Error (Cs4.Bad_block { block_ids; _ }) -> (
        (* the witness comes from the rejected block alone *)
        match Cs4.block_witnesses ?max_cycles g ~block_ids ~limit:1 with
        | [], true -> Error "no multi-source cycle within the cycle budget"
        | [], false -> Error "not CS4 yet no multi-source cycle witness"
        | cycle :: _, _ -> (
          match rewrite_step g cycle with
          | None -> Error "witness cycle admits no acyclic reroute"
          | Some (g', r) -> loop g' (r :: reroutes) (rounds + 1)))
    in
    loop g [] 0

let preserves_reachability original t =
  let n = Graph.num_nodes original in
  if Graph.num_nodes t.graph <> n then false
  else begin
    let ok = ref true in
    for v = 0 to n - 1 do
      let before = Topo.reachable original v in
      let after = Topo.reachable t.graph v in
      for w = 0 to n - 1 do
        if before.(w) && not after.(w) then ok := false
      done
    done;
    !ok
  end

(* Shared rendering for the CLI: `streamcheck repair` and
   `streamcheck lint --fix` print reroutes through these, so the two
   commands cannot drift apart. *)
let pp_reroute ppf r =
  Format.fprintf ppf "reroute %d->%d via %d%s" (fst r.deleted) (snd r.deleted)
    r.via
    (match r.added with
    | None -> " (relay channel existed)"
    | Some (a, b) -> Printf.sprintf " (added %d->%d)" a b)

let pp_summary ~original ppf t =
  Format.fprintf ppf "repaired: %d channel(s) deleted, %d added@." t.deleted_edges
    t.added_edges;
  List.iter (fun r -> Format.fprintf ppf "  %a@." pp_reroute r) t.reroutes;
  Format.fprintf ppf "reachability preserved: %b"
    (preserves_reachability original t)
