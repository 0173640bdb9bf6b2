open Fstream_graph
open Fstream_workloads
open Lemma_oracle

let k4_dag () =
  Graph.make ~nodes:4
    [ (0, 1, 1); (0, 2, 1); (0, 3, 1); (1, 2, 1); (1, 3, 1); (2, 3, 1) ]

let test_known_graphs () =
  Alcotest.(check bool) "K4 itself has a K4 subdivision" true
    (Undirected_sp.has_k4_subdivision (k4_dag ()));
  Alcotest.(check bool) "butterfly has a K4 subdivision" true
    (Undirected_sp.has_k4_subdivision (Topo_gen.fig4_butterfly ~cap:1));
  Alcotest.(check bool) "fig4 left has none" false
    (Undirected_sp.has_k4_subdivision (Topo_gen.fig4_left ~cap:1));
  Alcotest.(check bool) "hexagon has none" false
    (Undirected_sp.has_k4_subdivision (Topo_gen.fig3_hexagon ()));
  Alcotest.(check bool) "fig5 ladder has none" false
    (Undirected_sp.has_k4_subdivision (Topo_gen.fig5_ladder ~cap:1));
  Alcotest.(check bool) "pipeline is undirected SP" true
    (Undirected_sp.is_undirected_sp (Topo_gen.pipeline ~stages:5 ~cap:1));
  Alcotest.(check bool) "multi-edge is undirected SP" true
    (Undirected_sp.is_undirected_sp
       (Graph.make ~nodes:2 [ (0, 1, 1); (0, 1, 1); (0, 1, 1) ]))

let test_k5_contains_k4 () =
  (* Corollary V.2's premise: K5 (as a DAG) contains K4 homeomorphs *)
  let edges = ref [] in
  for i = 0 to 4 do
    for j = i + 1 to 4 do
      edges := (i, j, 1) :: !edges
    done
  done;
  let k5 = Graph.make ~nodes:5 (List.rev !edges) in
  Alcotest.(check bool) "K5 has a K4 subdivision" true
    (Undirected_sp.has_k4_subdivision k5)

let prop_lemma_v1 =
  (* Lemma V.1: CS4 implies no K4 subdivision. *)
  Tutil.qtest ~count:300 "Lemma V.1 on random DAGs" Tutil.seed_gen (fun seed ->
      let g = Tutil.random_dag_of_seed seed in
      (not (Fstream_ladder.Cs4.is_cs4 g))
      || not (Undirected_sp.has_k4_subdivision g))

let prop_lemma_v6_converse =
  (* The constructive content of Lemma V.6: a two-terminal DAG that is
     not CS4 contains a K4 subdivision (crossing chords / non-SP chord
     graphs are exactly the K4 witnesses its proof builds). *)
  Tutil.qtest ~count:300 "non-CS4 two-terminal DAGs contain K4"
    Tutil.seed_gen (fun seed ->
      let g = Tutil.random_dag_of_seed seed in
      match Topo.is_two_terminal g with
      | None -> true
      | Some _ ->
        Fstream_ladder.Cs4.is_cs4 g || Undirected_sp.has_k4_subdivision g)

let prop_sp_families_no_k4 =
  Tutil.qtest ~count:200 "generated CS4 families are K4-free"
    Tutil.seed_gen (fun seed ->
      Undirected_sp.is_undirected_sp (Tutil.random_cs4_of_seed seed))

let suite =
  [
    Alcotest.test_case "known graphs" `Quick test_known_graphs;
    Alcotest.test_case "K5 contains K4" `Quick test_k5_contains_k4;
    prop_lemma_v1;
    prop_lemma_v6_converse;
    prop_sp_families_no_k4;
  ]
