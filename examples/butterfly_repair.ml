(* Topology repair (the paper's §VII future-work item), end to end.

     dune exec examples/butterfly_repair.exe

   The FFT butterfly (Fig. 4, right) is not CS4 — the cycle a-c-b-d
   has two sources and two sinks — so dummy intervals for it need the
   exponential general-DAG computation. The paper suggests replacing
   it with an SP-ladder by routing one crossing channel through an
   extra hop. [Repair.repair] finds that rewrite automatically; this
   example shows the rewritten topology, the polynomial interval
   computation it unlocks, and a run in which the relay node actually
   forwards the rerouted traffic. *)

open Fstream_graph
open Fstream_core
open Fstream_runtime
open Fstream_workloads

let () =
  let g = Topo_gen.fig4_butterfly ~cap:2 in
  let name = [| "X"; "a"; "b"; "c"; "d"; "Y" |] in
  Format.printf "original butterfly:@.";
  (match Compiler.compile Compiler.Non_propagation g with
  | Ok p -> Format.printf "  interval route: %a@." Compiler.pp_route p.route
  | Error e -> Format.printf "  %a@." Compiler.pp_error e);

  let r =
    match Fstream_repair.Repair.repair g with
    | Ok r -> r
    | Error e -> failwith e
  in
  Format.printf "@.repair: %d channel(s) deleted, %d added@."
    r.deleted_edges r.added_edges;
  List.iter
    (fun (rr : Fstream_repair.Repair.reroute) ->
      Format.printf "  traffic %s -> %s now rides %s -> %s -> %s%s@."
        name.(fst rr.deleted)
        name.(snd rr.deleted)
        name.(fst rr.deleted)
        name.(rr.via)
        name.(snd rr.deleted)
        (match rr.added with
        | Some (u, v) ->
          Printf.sprintf " (new channel %s -> %s)" name.(u) name.(v)
        | None -> ""))
    r.reroutes;
  Format.printf "  reachability preserved: %b@."
    (Fstream_repair.Repair.preserves_reachability g r);

  let g' = r.graph in
  let plan =
    match Compiler.compile Compiler.Non_propagation g' with
    | Ok p -> p
    | Error e -> failwith (Compiler.error_to_string e)
  in
  Format.printf "@.repaired topology: %a@." Compiler.pp_route plan.route;
  List.iter
    (fun (e : Graph.edge) ->
      Format.printf "  [%s -> %s] cap %d, interval %a@." name.(e.src)
        name.(e.dst) e.cap Interval.pp plan.intervals.(e.id))
    (Graph.edges g');

  (* Run the repaired application. The relay d multiplexes: its own
     results go to Y; messages that arrived from b destined for c are
     forwarded on the new d -> c channel. *)
  let rng = Random.State.make [| 3 |] in
  let edge_to u v =
    match
      List.find_opt (fun (e : Graph.edge) -> e.dst = v) (Graph.out_edges g' u)
    with
    | Some e -> e.id
    | None -> failwith "missing edge"
  in
  let b = 2 and c = 3 and d = 4 in
  let from_b_to_d = edge_to b d and relay = edge_to d c in
  let kernels =
    Filters.for_graph g' (fun v outs ->
        if v = 0 then fun ~seq:_ ~got:_ ->
          List.filter (fun _ -> Random.State.float rng 1.0 < 0.8) outs
        else if v = d then fun ~seq:_ ~got ->
          (* forward b's stream on the relay; own output elsewhere *)
          List.filter
            (fun id -> id <> relay || List.mem from_b_to_d got)
            outs
        else Filters.passthrough outs)
  in
  let stats =
    Engine.run ~graph:g' ~kernels ~inputs:2000
      ~avoidance:
        (Engine.Non_propagation (Compiler.send_thresholds g' plan.intervals))
      ()
  in
  Format.printf "@.simulation on repaired topology: %a@." Report.pp stats
