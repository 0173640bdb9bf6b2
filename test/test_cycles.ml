open Fstream_graph
open Fstream_workloads

let count g = Cycles.count g

let test_counts () =
  Alcotest.(check int) "triangle has one cycle" 1
    (count (Topo_gen.fig2_triangle ~cap:1));
  Alcotest.(check int) "hexagon has one cycle" 1
    (count (Topo_gen.fig3_hexagon ()));
  Alcotest.(check int) "butterfly has 7 cycles" 7
    (count (Topo_gen.fig4_butterfly ~cap:1));
  Alcotest.(check int) "parallel pair has one cycle" 1
    (count (Graph.make ~nodes:2 [ (0, 1, 1); (0, 1, 2) ]));
  Alcotest.(check int) "triple multi-edge has three cycles" 3
    (count (Graph.make ~nodes:2 [ (0, 1, 1); (0, 1, 2); (0, 1, 3) ]));
  Alcotest.(check int) "tree has no cycles" 0
    (count (Graph.make ~nodes:3 [ (0, 1, 1); (0, 2, 1) ]))

let test_bypassed_diamond_counts () =
  (* k in-diamond cycles plus 2^k bypass cycles *)
  List.iter
    (fun k ->
      let g = Topo_gen.diamond_chain ~bypass:true ~diamonds:k ~cap:1 () in
      Alcotest.(check int)
        (Printf.sprintf "diamond chain k=%d" k)
        ((1 lsl k) + k) (count g))
    [ 1; 2; 3; 4; 5; 6 ]

let test_max_cycles_guard () =
  let g = Topo_gen.diamond_chain ~bypass:true ~diamonds:10 ~cap:1 () in
  Alcotest.check_raises "enumeration bail-out"
    (Cycles.Budget_exceeded 100) (fun () ->
      ignore (Cycles.enumerate ~max_cycles:100 g))

let test_runs_hexagon () =
  let g = Topo_gen.fig3_hexagon () in
  match Cycles.enumerate g with
  | [ c ] ->
    let runs = Cycles.runs c in
    Alcotest.(check int) "two runs" 2 (Array.length runs);
    Alcotest.(check (list int)) "single source a" [ 0 ] (Cycles.cycle_sources c);
    Alcotest.(check (list int)) "single sink f" [ 3 ] (Cycles.cycle_sinks c);
    Alcotest.(check bool) "CS4 cycle" true (Cycles.is_cs4_cycle c);
    let caps =
      List.sort compare (Array.to_list (Array.map Cycles.run_caps runs))
    in
    Alcotest.(check (list int)) "run cap totals are 6 and 8" [ 6; 8 ] caps;
    Alcotest.(check (list int)) "run hops" [ 3; 3 ]
      (Array.to_list (Array.map Cycles.run_hops runs));
    Alcotest.(check (array int)) "opposite pairing" [| 1; 0 |]
      (Cycles.opposite_run c)
  | l -> Alcotest.failf "expected one cycle, got %d" (List.length l)

let test_butterfly_bad_cycle () =
  let g = Topo_gen.fig4_butterfly ~cap:1 in
  let bad = List.filter (fun c -> not (Cycles.is_cs4_cycle c)) (Cycles.enumerate g) in
  Alcotest.(check int) "exactly one multi-source cycle (a-c-b-d)" 1
    (List.length bad);
  match bad with
  | [ c ] ->
    Alcotest.(check int) "it has two sources" 2
      (List.length (Cycles.cycle_sources c));
    Alcotest.(check (list int)) "sources are the middle splits a,b" [ 1; 2 ]
      (Cycles.cycle_sources c);
    Alcotest.(check (list int)) "sinks are c,d" [ 3; 4 ] (Cycles.cycle_sinks c)
  | _ -> assert false

let prop_cycle_wellformed =
  Tutil.qtest ~count:100 "cycles are closed walks with distinct edges"
    Tutil.seed_gen (fun seed ->
      let g = Tutil.random_dag_of_seed seed in
      List.for_all
        (fun c ->
          let ids = List.map (fun o -> o.Cycles.edge.Graph.id) c in
          let distinct = List.length (List.sort_uniq compare ids) = List.length ids in
          let verts = Cycles.vertices c in
          let distinct_v =
            List.length (List.sort_uniq compare verts) = List.length verts
          in
          (* closed: walking the orientations returns to the start *)
          let closed =
            let rec walk v = function
              | [] -> Some v
              | o :: rest -> walk (Graph.other_endpoint o.Cycles.edge v) rest
            in
            match (verts, walk (List.hd verts) c) with
            | v0 :: _, Some v -> v = v0
            | _ -> false
          in
          distinct && distinct_v && closed && List.length c >= 2)
        (Cycles.enumerate g))

let prop_runs_partition =
  Tutil.qtest ~count:100 "runs partition each cycle and alternate"
    Tutil.seed_gen (fun seed ->
      let g = Tutil.random_dag_of_seed seed in
      List.for_all
        (fun c ->
          let runs = Cycles.runs c in
          let total =
            Array.fold_left (fun a r -> a + Cycles.run_hops r) 0 runs
          in
          let even = Array.length runs mod 2 = 0 in
          let opp = Cycles.opposite_run c in
          let involutive =
            Array.for_all Fun.id
              (Array.mapi (fun i j -> opp.(j) = i && j <> i) opp)
          in
          total = List.length c && even && involutive
          && Array.for_all
               (fun (r : Cycles.run) ->
                 (* run edges form a directed path source -> sink *)
                 let rec follow v = function
                   | [] -> v = r.run_sink
                   | (e : Graph.edge) :: rest -> e.src = v && follow e.dst rest
                 in
                 follow r.run_source r.run_edges)
               runs)
        (Cycles.enumerate g))

let prop_sources_share_opposite =
  Tutil.qtest ~count:100 "a run and its opposite share their source"
    Tutil.seed_gen (fun seed ->
      let g = Tutil.random_dag_of_seed seed in
      List.for_all
        (fun c ->
          let runs = Cycles.runs c in
          let opp = Cycles.opposite_run c in
          Array.for_all Fun.id
            (Array.mapi
               (fun i j ->
                 runs.(i).Cycles.run_source = runs.(j).Cycles.run_source)
               opp))
        (Cycles.enumerate g))

let suite =
  [
    Alcotest.test_case "known cycle counts" `Quick test_counts;
    Alcotest.test_case "bypassed diamond counts" `Quick
      test_bypassed_diamond_counts;
    Alcotest.test_case "max_cycles guard" `Quick test_max_cycles_guard;
    Alcotest.test_case "hexagon run structure" `Quick test_runs_hexagon;
    Alcotest.test_case "butterfly bad cycle" `Quick test_butterfly_bad_cycle;
    prop_cycle_wellformed;
    prop_runs_partition;
    prop_sources_share_opposite;
  ]
