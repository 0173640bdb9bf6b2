open Fstream_graph
open Fstream_spdag
open Fstream_workloads
open Lemma_oracle

let test_build_spec () =
  let spec =
    Sp_build.(Series [ Edge 2; Parallel [ Edge 3; Series [ Edge 1; Edge 4 ] ] ])
  in
  let g = Sp_build.to_graph spec in
  Alcotest.(check int) "edges" 4 (Graph.num_edges g);
  Alcotest.(check int) "nodes = inner + 2" 4 (Graph.num_nodes g);
  Alcotest.(check bool) "two-terminal with source 0" true
    (Topo.is_two_terminal g = Some (0, Graph.num_nodes g - 1));
  Alcotest.(check int) "spec num_edges" 4 (Sp_build.num_edges spec);
  Alcotest.(check int) "spec inner nodes" 2 (Sp_build.num_inner_nodes spec)

let test_recognize_basics () =
  Alcotest.(check bool) "single edge is SP" true
    (Sp_recognize.is_sp (Graph.make ~nodes:2 [ (0, 1, 1) ]));
  Alcotest.(check bool) "multi-edge is SP" true
    (Sp_recognize.is_sp (Graph.make ~nodes:2 [ (0, 1, 1); (0, 1, 2) ]));
  Alcotest.(check bool) "hexagon is SP" true
    (Sp_recognize.is_sp (Topo_gen.fig3_hexagon ()));
  Alcotest.(check bool) "fig4 left is not SP" false
    (Sp_recognize.is_sp (Topo_gen.fig4_left ~cap:1));
  Alcotest.(check bool) "butterfly is not SP" false
    (Sp_recognize.is_sp (Topo_gen.fig4_butterfly ~cap:1));
  Alcotest.(check bool) "fig2 triangle is not SP (chord is fine? no: it is!)"
    true
    (* A -> B -> C with shortcut A -> C is Pc(AC, Sc(AB, BC)): SP. *)
    (Sp_recognize.is_sp (Topo_gen.fig2_triangle ~cap:1))

let test_recognize_failures () =
  let two_sources = Graph.make ~nodes:3 [ (0, 2, 1); (1, 2, 1) ] in
  (match Sp_recognize.recognize two_sources with
  | Error Sp_recognize.Not_two_terminal -> ()
  | _ -> Alcotest.fail "expected Not_two_terminal");
  match Sp_recognize.recognize (Topo_gen.fig4_left ~cap:1) with
  | Error (Sp_recognize.Irreducible { remaining_edges }) ->
    Alcotest.(check int) "fig4-left core is itself" 5 remaining_edges
  | _ -> Alcotest.fail "expected Irreducible"

let test_tree_values_hexagon () =
  match Sp_recognize.recognize (Topo_gen.fig3_hexagon ()) with
  | Error _ -> Alcotest.fail "hexagon should be SP"
  | Ok t ->
    Alcotest.(check int) "L = min branch total" 6 t.Sp_tree.l;
    Alcotest.(check int) "h = hops" 3 t.Sp_tree.h;
    Alcotest.(check int) "leaves" 6 t.Sp_tree.n_edges;
    Alcotest.(check bool) "tree audits against graph" true
      (Sp_tree.check_against t (Topo_gen.fig3_hexagon ()))

let test_tree_constructors () =
  let g = Graph.make ~nodes:3 [ (0, 1, 2); (1, 2, 3); (0, 2, 4) ] in
  let l0 = Sp_tree.leaf (Graph.edge g 0) in
  let l1 = Sp_tree.leaf (Graph.edge g 1) in
  let l2 = Sp_tree.leaf (Graph.edge g 2) in
  let t = Sp_tree.parallel (Sp_tree.series l0 l1) l2 in
  Alcotest.(check int) "L of parallel" 4 t.Sp_tree.l;
  Alcotest.(check int) "h of parallel" 2 t.Sp_tree.h;
  Alcotest.check_raises "series mismatch rejected"
    (Invalid_argument "Sp_tree.series: sink of first must be source of second")
    (fun () -> ignore (Sp_tree.series l0 l2));
  Alcotest.check_raises "parallel mismatch rejected"
    (Invalid_argument "Sp_tree.parallel: terminals must coincide") (fun () ->
      ignore (Sp_tree.parallel l0 l1))

let test_reduce_protect () =
  (* Reducing a path while protecting an inner node leaves two
     super-edges meeting there. *)
  let g = Topo_gen.pipeline ~stages:4 ~cap:1 in
  let core =
    Sp_recognize.reduce
      ~protect:(fun v -> v = 0 || v = 4 || v = 2)
      (Graph.edges g)
  in
  Alcotest.(check int) "two super-edges" 2 (List.length core);
  let ends =
    List.sort compare
      (List.map (fun se -> Sp_recognize.(se.s_src, se.s_dst)) core)
  in
  Alcotest.(check (list (pair int int))) "super-edge endpoints"
    [ (0, 2); (2, 4) ]
    ends

let prop_roundtrip =
  Tutil.qtest "random SP graphs are recognized with a faithful tree"
    Tutil.seed_gen (fun seed ->
      let g = Tutil.random_sp_of_seed seed in
      match Sp_recognize.recognize g with
      | Error _ -> false
      | Ok t -> Sp_tree.check_against t g)

let prop_tree_l_h_match_paths =
  Tutil.qtest "tree caches L and h equal to direct path computations"
    Tutil.seed_gen (fun seed ->
      let g = Tutil.random_sp_of_seed seed in
      match (Sp_recognize.recognize g, Topo.is_two_terminal g) with
      | Ok t, Some (x, y) ->
        Paths.shortest_caps g ~src:x ~dst:y = Some t.Sp_tree.l
        && Paths.longest_hops g ~src:x ~dst:y = Some t.Sp_tree.h
      | _ -> false)

let prop_spec_edge_count =
  Tutil.qtest "built graph edge count matches spec" Tutil.seed_gen (fun seed ->
      let rng = Tutil.rng_of seed in
      let spec =
        Topo_gen.random_sp_spec rng
          ~target_edges:(1 + Random.State.int rng 20)
          ~max_cap:5
      in
      Graph.num_edges (Sp_build.to_graph spec) = Sp_build.num_edges spec)

let prop_sp_cycles_single_source_sink =
  (* Lemma III.4: every undirected simple cycle of an SP-DAG has one
     source and one sink. *)
  Tutil.qtest ~count:100 "Lemma III.4 on random SP graphs" Tutil.seed_gen
    (fun seed ->
      let g = Tutil.random_sp_of_seed ~max_edges:12 seed in
      List.for_all Cycles.is_cs4_cycle (Cycles.enumerate g))

let prop_postdominators_exist =
  (* The observation before Lemma III.1: in an SP-DAG every node has an
     immediate postdominator (except the sink itself). *)
  Tutil.qtest ~count:100 "every non-sink node has a postdominator"
    Tutil.seed_gen (fun seed ->
      let g = Tutil.random_sp_of_seed seed in
      match Topo.is_two_terminal g with
      | None -> false
      | Some (_, y) ->
        let ipd = Dominators.ipostdoms g y in
        let ok = ref true in
        Graph.iter_nodes g (fun v ->
            if v <> y && ipd.(v) = -1 then ok := false);
        !ok)

let prop_lemma_iii_1 =
  (* Lemma III.1: a split node Z dominates every node on every directed
     path from Z to its immediate postdominator W, other than W. *)
  Tutil.qtest ~count:60 "Lemma III.1 on random SP graphs" Tutil.seed_gen
    (fun seed ->
      let g = Tutil.random_sp_of_seed ~max_edges:10 seed in
      match Topo.is_two_terminal g with
      | None -> false
      | Some (x, y) ->
        let ipd = Dominators.ipostdoms g y in
        let idom = Dominators.idoms g x in
        let dominates a b =
          let rec climb v = v = a || (v <> x && idom.(v) <> -1 && climb idom.(v)) in
          climb b
        in
        let ok = ref true in
        Graph.iter_nodes g (fun z ->
            if Graph.out_degree g z >= 2 then begin
              let w = ipd.(z) in
              (* nodes strictly between z and w on directed paths:
                 reachable from z and co-reachable from w, not z or w *)
              let from_z = Topo.reachable g z
              and to_w = Topo.co_reachable g w in
              Graph.iter_nodes g (fun p ->
                  if p <> z && p <> w && from_z.(p) && to_w.(p) then
                    if not (dominates z p) then ok := false)
            end);
        !ok)

let prop_corollary_iii_3 =
  (* Corollary III.3: in Pc(H1, H2), any simple cycle using edges of
     both components is a pair of directed source-to-sink paths, one
     per component. Component membership is recoverable by edge id:
     Sp_build emits H1's edges before H2's. *)
  Tutil.qtest ~count:80 "Corollary III.3 on random parallel compositions"
    Tutil.seed_gen (fun seed ->
      let rng = Tutil.rng_of seed in
      let s1 =
        Topo_gen.random_sp_spec rng
          ~target_edges:(1 + Random.State.int rng 5)
          ~max_cap:4
      in
      let s2 =
        Topo_gen.random_sp_spec rng
          ~target_edges:(1 + Random.State.int rng 5)
          ~max_cap:4
      in
      let g = Sp_build.to_graph (Sp_build.Parallel [ s1; s2 ]) in
      let cut = Sp_build.num_edges s1 in
      let half (e : Graph.edge) = e.id < cut in
      match Topo.is_two_terminal g with
      | None -> false
      | Some (x, y) ->
        List.for_all
          (fun c ->
            let edges = List.map (fun o -> o.Cycles.edge) c in
            let in1 = List.exists half edges
            and in2 = List.exists (fun e -> not (half e)) edges in
            (not (in1 && in2))
            ||
            let runs = Cycles.runs c in
            Array.length runs = 2
            && Array.for_all
                 (fun (r : Cycles.run) ->
                   r.run_source = x && r.run_sink = y
                   &&
                   (* each run confined to one component *)
                   let h = List.map half r.run_edges in
                   List.for_all Fun.id h
                   || List.for_all not h)
                 runs)
          (Cycles.enumerate g))

let suite =
  [
    Alcotest.test_case "spec building" `Quick test_build_spec;
    Alcotest.test_case "recognition basics" `Quick test_recognize_basics;
    Alcotest.test_case "recognition failures" `Quick test_recognize_failures;
    Alcotest.test_case "hexagon tree values" `Quick test_tree_values_hexagon;
    Alcotest.test_case "tree constructors" `Quick test_tree_constructors;
    Alcotest.test_case "reduce with protected node" `Quick test_reduce_protect;
    prop_roundtrip;
    prop_tree_l_h_match_paths;
    prop_spec_edge_count;
    prop_sp_cycles_single_source_sink;
    prop_postdominators_exist;
    prop_lemma_iii_1;
    prop_corollary_iii_3;
  ]
