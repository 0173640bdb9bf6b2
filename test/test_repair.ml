open Fstream_graph
open Fstream_ladder
open Fstream_repair
open Fstream_workloads

let test_butterfly () =
  let g = Topo_gen.fig4_butterfly ~cap:2 in
  match Repair.repair g with
  | Error e -> Alcotest.failf "butterfly should repair: %s" e
  | Ok r ->
    Alcotest.(check bool) "result is CS4" true (Cs4.is_cs4 r.graph);
    Alcotest.(check int) "one channel deleted" 1 r.deleted_edges;
    Alcotest.(check int) "one relay channel added" 1 r.added_edges;
    Alcotest.(check int) "edge count preserved" (Graph.num_edges g)
      (Graph.num_edges r.graph);
    Alcotest.(check bool) "reachability preserved" true
      (Repair.preserves_reachability g r);
    (* the paper's sketch: the relay is one of the butterfly's middle
       sinks c or d, and the rerouted channel connected a source to the
       other sink *)
    (match r.reroutes with
    | [ rr ] ->
      Alcotest.(check bool) "relay is c or d" true
        (rr.via = 3 || rr.via = 4);
      Alcotest.(check bool) "deleted a middle channel" true
        (List.mem (fst rr.deleted) [ 1; 2 ] && List.mem (snd rr.deleted) [ 3; 4 ])
    | _ -> Alcotest.fail "expected exactly one reroute")

let test_identity_on_cs4 () =
  let g = Topo_gen.fig4_left ~cap:2 in
  match Repair.repair g with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "no deletions" 0 r.deleted_edges;
    Alcotest.(check int) "no additions" 0 r.added_edges;
    Alcotest.(check int) "graph unchanged" (Graph.num_edges g)
      (Graph.num_edges r.graph)

let test_rejects_non_two_terminal () =
  let g = Graph.make ~nodes:3 [ (0, 2, 1); (1, 2, 1) ] in
  match Repair.repair g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "two sources must be rejected"

let prop_repair_sound =
  (* on random two-terminal DAGs: when repair succeeds the result is
     CS4 and reachability-preserving *)
  Tutil.qtest ~count:200 "repair soundness on random DAGs" Tutil.seed_gen
    (fun seed ->
      let g = Tutil.random_dag_of_seed seed in
      match Repair.repair g with
      | Error _ -> true (* honest failure is allowed *)
      | Ok r -> Cs4.is_cs4 r.graph && Repair.preserves_reachability g r)

let prop_repair_usually_succeeds =
  (* the heuristic should fix the vast majority of small random DAGs;
     guard against regressions that make it give up *)
  Tutil.qtest ~count:1 "repair success rate >= 90%" QCheck.unit (fun () ->
      let successes = ref 0 and total = 200 in
      for seed = 0 to total - 1 do
        let g = Tutil.random_dag_of_seed seed in
        match Repair.repair g with
        | Ok _ -> incr successes
        | Error _ -> ()
      done;
      !successes * 10 >= total * 9)

let prop_repair_idempotent =
  Tutil.qtest ~count:100 "repairing a repaired graph changes nothing"
    Tutil.seed_gen (fun seed ->
      let g = Tutil.random_dag_of_seed seed in
      match Repair.repair g with
      | Error _ -> true
      | Ok r -> (
        match Repair.repair r.graph with
        | Error _ -> false
        | Ok r2 -> r2.deleted_edges = 0 && r2.added_edges = 0))

(* A reroute deletes one channel and adds at most one relay of the same
   capacity, so a repair never raises (no [Graph.make] can overflow
   [Graph.max_total_cap]) and never adds capacity. *)
let prop_repair_total_and_bounded =
  let total g = Graph.fold_edges g ~init:0 ~f:(fun s e -> s + e.Graph.cap) in
  Tutil.qtest ~count:300 "repair raises nothing and adds no capacity"
    Tutil.seed_gen (fun seed ->
      List.for_all
        (fun g ->
          match Repair.repair g with
          | Ok r -> total r.graph <= total g
          | Error _ -> true)
        [
          Tutil.random_dag_of_seed seed;
          Tutil.random_dense_of_seed seed;
          Tutil.random_cs4_of_seed seed;
          Tutil.random_ladder_of_seed seed;
          Topo_gen.fig4_butterfly ~cap:(1 + (seed mod 7));
        ])

let suite =
  [
    Alcotest.test_case "butterfly repair (paper's sketch)" `Quick
      test_butterfly;
    Alcotest.test_case "identity on CS4 input" `Quick test_identity_on_cs4;
    Alcotest.test_case "rejects non-two-terminal" `Quick
      test_rejects_non_two_terminal;
    prop_repair_sound;
    prop_repair_usually_succeeds;
    prop_repair_idempotent;
    prop_repair_total_and_bounded;
  ]
