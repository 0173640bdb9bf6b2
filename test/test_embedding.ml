open Fstream_graph
open Fstream_workloads
open Lemma_oracle

let certify g =
  match Embedding.of_graph g with
  | Error e -> Alcotest.fail e
  | Ok rot ->
    Alcotest.(check bool) "wellformed" true (Embedding.check_wellformed g rot);
    Alcotest.(check bool) "euler" true (Embedding.euler_ok g rot);
    rot

let test_figures () =
  ignore (certify (Graph.make ~nodes:2 [ (0, 1, 1) ]));
  ignore (certify (Graph.make ~nodes:2 [ (0, 1, 1); (0, 1, 1); (0, 1, 1) ]));
  ignore (certify (Topo_gen.fig1_split_join ~branches:5 ~cap:1));
  ignore (certify (Topo_gen.fig2_triangle ~cap:1));
  ignore (certify (Topo_gen.fig3_hexagon ()));
  ignore (certify (Topo_gen.fig4_left ~cap:1));
  ignore (certify (Topo_gen.fig5_ladder ~cap:1));
  ignore (certify (Topo_gen.wide_ladder ~rungs:7 ~cap:1));
  ignore (certify (Topo_gen.pipeline ~stages:6 ~cap:1))

let test_face_counts () =
  (* a planar two-terminal graph with c independent cycles has c + 1
     faces: the hexagon has 1 cycle, fig4-left 2, fig5 has 7 *)
  let count g =
    match Embedding.of_graph g with
    | Ok rot -> Embedding.faces g rot
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "hexagon faces" 2 (count (Topo_gen.fig3_hexagon ()));
  Alcotest.(check int) "fig4-left faces" 3 (count (Topo_gen.fig4_left ~cap:1));
  Alcotest.(check int) "pipeline faces" 1 (count (Topo_gen.pipeline ~stages:3 ~cap:1))

let test_butterfly_rejected () =
  match Embedding.of_graph (Topo_gen.fig4_butterfly ~cap:1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "butterfly has no CS4 decomposition to embed"

let test_nonplanar_sanity () =
  (* the face tracer must not validate a non-planar graph: K3,3 with
     edge-id-ordered rotations fails Euler *)
  let edges =
    List.concat_map (fun a -> List.map (fun b -> (a, b, 1)) [ 3; 4; 5 ]) [ 0; 1; 2 ]
  in
  let g = Graph.make ~nodes:6 edges in
  let rot =
    Array.init 6 (fun v ->
        List.concat_map
          (fun (e : Graph.edge) ->
            if e.src = v then [ 2 * e.id ]
            else if e.dst = v then [ (2 * e.id) + 1 ]
            else [])
          (Graph.edges g))
  in
  Alcotest.(check bool) "rotation wellformed" true
    (Embedding.check_wellformed g rot);
  Alcotest.(check bool) "K3,3 fails Euler" false (Embedding.euler_ok g rot)

let prop_corollary_v2 =
  (* Corollary V.2, constructively: every CS4 graph we can generate
     admits a genus-zero rotation system built from its decomposition *)
  Tutil.qtest ~count:300 "Corollary V.2 on random CS4 graphs" Tutil.seed_gen
    (fun seed ->
      let g = Tutil.random_cs4_of_seed seed in
      match Embedding.of_graph g with
      | Error _ -> false
      | Ok rot -> Embedding.check_wellformed g rot && Embedding.euler_ok g rot)

let prop_ladders_planar =
  Tutil.qtest ~count:200 "ladder embeddings are planar" Tutil.seed_gen
    (fun seed ->
      let g = Tutil.random_ladder_of_seed seed in
      match Embedding.of_graph g with
      | Error _ -> false
      | Ok rot -> Embedding.euler_ok g rot)

let suite =
  [
    Alcotest.test_case "figure graphs embed" `Quick test_figures;
    Alcotest.test_case "face counts" `Quick test_face_counts;
    Alcotest.test_case "butterfly rejected" `Quick test_butterfly_rejected;
    Alcotest.test_case "non-planar sanity (K3,3)" `Quick test_nonplanar_sanity;
    prop_corollary_v2;
    prop_ladders_planar;
  ]
