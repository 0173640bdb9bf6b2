open Fstream_graph
open Fstream_workloads
open Lemma_oracle

let diamond () =
  (* 0 -> {1,2} -> 3 *)
  Graph.make ~nodes:4 [ (0, 1, 2); (0, 2, 3); (1, 3, 4); (2, 3, 5) ]

let test_make_validation () =
  Alcotest.check_raises "self loop rejected"
    (Invalid_argument "Graph.make: self-loop") (fun () ->
      ignore (Graph.make ~nodes:2 [ (0, 0, 1) ]));
  Alcotest.check_raises "zero capacity rejected"
    (Invalid_argument "Graph.make: cap < 1") (fun () ->
      ignore (Graph.make ~nodes:2 [ (0, 1, 0) ]));
  Alcotest.check_raises "out of range endpoint"
    (Invalid_argument "Graph.make: node 2 out of range") (fun () ->
      ignore (Graph.make ~nodes:2 [ (0, 2, 1) ]))

let test_accessors () =
  let g = diamond () in
  Alcotest.(check int) "num_nodes" 4 (Graph.num_nodes g);
  Alcotest.(check int) "num_edges" 4 (Graph.num_edges g);
  Alcotest.(check int) "size = |V| + |E|" 8 (Graph.size g);
  Alcotest.(check int) "out degree of source" 2 (Graph.out_degree g 0);
  Alcotest.(check int) "in degree of sink" 2 (Graph.in_degree g 3);
  Alcotest.(check (list int)) "sources" [ 0 ] (Graph.sources g);
  Alcotest.(check (list int)) "sinks" [ 3 ] (Graph.sinks g);
  let e = Graph.edge g 1 in
  Alcotest.(check int) "other_endpoint src side" 2 (Graph.other_endpoint e 0);
  Alcotest.(check int) "other_endpoint dst side" 0 (Graph.other_endpoint e 2);
  Alcotest.(check int) "incident count at junction" 2
    (List.length (Graph.incident_edges g 1))

let test_parallel_edges () =
  let g = Graph.make ~nodes:2 [ (0, 1, 1); (0, 1, 2); (0, 1, 3) ] in
  let e0 = Graph.edge g 0 in
  Alcotest.(check (list int)) "parallel edges of e0" [ 1; 2 ]
    (List.map (fun (e : Graph.edge) -> e.id) (Graph.parallel_edges g e0))

let test_reverse () =
  let g = diamond () in
  let r = Graph.reverse g in
  Alcotest.(check (list int)) "reversed sources" [ 3 ] (Graph.sources r);
  let e = Graph.edge r 0 in
  Alcotest.(check (pair int int)) "edge flipped" (1, 0) (e.src, e.dst);
  Alcotest.(check int) "caps preserved" 2 e.cap

let test_topo () =
  let g = diamond () in
  (match Topo.order g with
  | None -> Alcotest.fail "diamond should be a DAG"
  | Some o ->
    let rank = Topo.rank g in
    List.iter
      (fun (e : Graph.edge) ->
        Alcotest.(check bool) "edges go forward" true (rank.(e.src) < rank.(e.dst)))
      (Graph.edges g);
    Alcotest.(check int) "order covers all nodes" 4 (Array.length o));
  Alcotest.(check bool) "two-terminal" true
    (Topo.is_two_terminal g = Some (0, 3));
  let disconnected = Graph.make ~nodes:4 [ (0, 1, 1); (2, 3, 1) ] in
  Alcotest.(check bool) "disconnected is not connected" false
    (Topo.connected disconnected);
  Alcotest.(check bool) "disconnected is not two-terminal" true
    (Topo.is_two_terminal disconnected = None)

let test_reachability () =
  let g = Graph.make ~nodes:5 [ (0, 1, 1); (1, 2, 1); (3, 4, 1); (0, 3, 1) ] in
  let r = Topo.reachable g 1 in
  Alcotest.(check bool) "1 reaches 2" true r.(2);
  Alcotest.(check bool) "1 does not reach 3" false r.(3);
  let c = Topo.co_reachable g 4 in
  Alcotest.(check bool) "0 co-reaches 4" true c.(0);
  Alcotest.(check bool) "1 does not co-reach 4" false c.(1)

let test_dominators () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 4 *)
  let g =
    Graph.make ~nodes:5
      [ (0, 1, 1); (0, 2, 1); (1, 3, 1); (2, 3, 1); (3, 4, 1) ]
  in
  let idom = Dominators.idoms g 0 in
  Alcotest.(check int) "idom of 3 is 0 (join)" 0 idom.(3);
  Alcotest.(check int) "idom of 4 is 3" 3 idom.(4);
  Alcotest.(check bool) "0 dominates 4" true (Dominators.dominates g 0 0 4);
  Alcotest.(check bool) "1 does not dominate 3" false
    (Dominators.dominates g 0 1 3);
  let ipd = Dominators.ipostdoms g 4 in
  Alcotest.(check int) "ipostdom of 0 is 3" 3 ipd.(0);
  Alcotest.(check int) "ipostdom of 1 is 3" 3 ipd.(1)

let test_articulation () =
  (* two diamonds in series share node 3 *)
  let g =
    Graph.make ~nodes:7
      [
        (0, 1, 1); (0, 2, 1); (1, 3, 1); (2, 3, 1);
        (3, 4, 1); (3, 5, 1); (4, 6, 1); (5, 6, 1);
      ]
  in
  Alcotest.(check (list int)) "cut vertex" [ 3 ] (Articulation.articulation_points g);
  let comps = Articulation.biconnected_components g in
  Alcotest.(check int) "two blocks" 2 (List.length comps);
  let blocks = Articulation.serial_blocks g in
  Alcotest.(check (list (pair int int))) "block chain"
    [ (0, 3); (3, 6) ]
    (List.map (fun (a, b, _) -> (a, b)) blocks)

let test_bridge_blocks () =
  let g = Topo_gen.pipeline ~stages:4 ~cap:1 in
  let blocks = Articulation.serial_blocks g in
  Alcotest.(check int) "every pipeline edge is a block" 4 (List.length blocks);
  Alcotest.(check (list int)) "inner nodes are all cut vertices" [ 1; 2; 3 ]
    (Articulation.articulation_points g)

let test_paths () =
  let g = diamond () in
  Alcotest.(check (option int)) "shortest caps source->sink" (Some 6)
    (Paths.shortest_caps g ~src:0 ~dst:3);
  Alcotest.(check (option int)) "longest hops" (Some 2)
    (Paths.longest_hops g ~src:0 ~dst:3);
  Alcotest.(check (option int)) "unreachable pair" None
    (Paths.shortest_caps g ~src:1 ~dst:2);
  let through = Paths.longest_hops_through g ~src:0 ~dst:3 in
  Alcotest.(check (array (option int))) "through-hops per edge"
    [| Some 2; Some 2; Some 2; Some 2 |]
    through

let test_paths_weighted () =
  let g =
    Graph.make ~nodes:4 [ (0, 1, 5); (1, 3, 5); (0, 2, 1); (2, 3, 1); (0, 3, 7) ]
  in
  Alcotest.(check (option int)) "min cap path picks cheap branch" (Some 2)
    (Paths.shortest_caps g ~src:0 ~dst:3);
  let lf = Paths.longest_from g 0 ~weight:(fun e -> e.cap) in
  Alcotest.(check (option int)) "longest weighted" (Some 10) lf.(3);
  let st = Paths.shortest_to g 3 ~weight:(fun _ -> 1) in
  Alcotest.(check (option int)) "shortest hops to sink from 0" (Some 1) st.(0)

let prop_block_edges_partition =
  Tutil.qtest "biconnected components partition the edges" Tutil.seed_gen
    (fun seed ->
      let g = Tutil.random_cs4_of_seed seed in
      let comps = Articulation.biconnected_components g in
      let ids =
        List.concat_map (List.map (fun (e : Graph.edge) -> e.id)) comps
      in
      List.sort compare ids = List.init (Graph.num_edges g) Fun.id)

let prop_serial_blocks_chain =
  Tutil.qtest "serial blocks chain source to sink" Tutil.seed_gen (fun seed ->
      let g = Tutil.random_cs4_of_seed seed in
      match Topo.is_two_terminal g with
      | None -> false
      | Some (x, y) ->
        let blocks = Articulation.serial_blocks g in
        let rec chain expected = function
          | [] -> expected = y
          | (a, b, _) :: rest -> a = expected && chain b rest
        in
        chain x blocks)

(* brute-force enumeration of all simple directed paths, for
   cross-checking the DP path routines on small graphs *)
let all_paths g ~src ~dst =
  let rec go v visited =
    if v = dst then [ [] ]
    else
      List.concat_map
        (fun (e : Graph.edge) ->
          if List.mem e.dst visited then []
          else List.map (fun p -> e :: p) (go e.dst (e.dst :: visited)))
        (Graph.out_edges g v)
  in
  go src [ src ]

let prop_paths_vs_bruteforce =
  Tutil.qtest ~count:100 "DP paths match brute-force enumeration"
    Tutil.seed_gen (fun seed ->
      let g = Tutil.random_sp_of_seed ~max_edges:10 seed in
      match Topo.is_two_terminal g with
      | None -> false
      | Some (x, y) ->
        let paths = all_paths g ~src:x ~dst:y in
        let caps p = List.fold_left (fun a (e : Graph.edge) -> a + e.cap) 0 p in
        let shortest =
          List.fold_left (fun a p -> min a (caps p)) max_int paths
        in
        let longest_hops =
          List.fold_left (fun a p -> max a (List.length p)) 0 paths
        in
        Paths.shortest_caps g ~src:x ~dst:y = Some shortest
        && Paths.longest_hops g ~src:x ~dst:y = Some longest_hops)

let prop_through_hops_vs_bruteforce =
  Tutil.qtest ~count:60 "through-hops match brute force" Tutil.seed_gen
    (fun seed ->
      let g = Tutil.random_sp_of_seed ~max_edges:8 seed in
      match Topo.is_two_terminal g with
      | None -> false
      | Some (x, y) ->
        let paths = all_paths g ~src:x ~dst:y in
        let through = Paths.longest_hops_through g ~src:x ~dst:y in
        List.for_all
          (fun (e : Graph.edge) ->
            let best =
              List.fold_left
                (fun a p ->
                  if List.exists (fun (e' : Graph.edge) -> e'.id = e.id) p
                  then max a (List.length p)
                  else a)
                0 paths
            in
            through.(e.id) = (if best = 0 then None else Some best))
          (Graph.edges g))

let suite =
  [
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "parallel edges" `Quick test_parallel_edges;
    Alcotest.test_case "reverse" `Quick test_reverse;
    Alcotest.test_case "topological order" `Quick test_topo;
    Alcotest.test_case "reachability" `Quick test_reachability;
    Alcotest.test_case "dominators" `Quick test_dominators;
    Alcotest.test_case "articulation points" `Quick test_articulation;
    Alcotest.test_case "bridge blocks" `Quick test_bridge_blocks;
    Alcotest.test_case "paths on diamond" `Quick test_paths;
    Alcotest.test_case "weighted paths" `Quick test_paths_weighted;
    prop_block_edges_partition;
    prop_serial_blocks_chain;
    prop_paths_vs_bruteforce;
    prop_through_hops_vs_bruteforce;
  ]
