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

(* Oracle: the whole-graph DFS the block-pruned traversal replaced,
   kept verbatim: it explores across block boundaries and bridges, and
   deduplicates the two orientations of each cycle by a sorted
   edge-id key. The pruned search must list the same cycles in the
   same order and orientation, and raise the budget at the same
   cycle. *)
let reference_enumerate ?(max_cycles = 10_000_000) g =
  let n = Graph.num_nodes g in
  let visited = Array.make n false in
  let seen = Hashtbl.create 997 in
  let results = ref [] in
  let found = ref 0 in
  let record path_rev =
    let cycle = List.rev path_rev in
    let key =
      List.sort compare (List.map (fun o -> o.Cycles.edge.Graph.id) cycle)
    in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      incr found;
      if !found > max_cycles then raise (Cycles.Budget_exceeded max_cycles);
      results := cycle :: !results
    end
  in
  for s = 0 to n - 1 do
    let rec extend v last_edge path_rev =
      List.iter
        (fun (e : Graph.edge) ->
          if e.id <> last_edge then begin
            let w = Graph.other_endpoint e v in
            let o = { Cycles.edge = e; fwd = e.src = v } in
            if w = s then begin
              if path_rev <> [] then record (o :: path_rev)
            end
            else if w > s && not visited.(w) then begin
              visited.(w) <- true;
              extend w e.id (o :: path_rev);
              visited.(w) <- false
            end
          end)
        (Graph.incident_edges g v)
    in
    extend s (-1) []
  done;
  List.rev !results

let outcome f =
  match f () with v -> Ok v | exception Cycles.Budget_exceeded k -> Error k

let oracle_families =
  [
    ("random_sp", Tutil.random_sp_of_seed ?max_edges:None);
    ("random_ladder", Tutil.random_ladder_of_seed ?max_rungs:None);
    ("random_cs4", Tutil.random_cs4_of_seed ~max_blocks:4);
    ("random_dense", Tutil.random_dense_of_seed);
    ( "diamond_chain",
      fun seed ->
        Topo_gen.diamond_chain ~bypass:(seed mod 2 = 1)
          ~diamonds:(1 + (seed / 2 mod 8))
          ~cap:(1 + (seed mod 5)) () );
    ( "fig4_butterfly",
      fun seed -> Topo_gen.fig4_butterfly ~cap:(1 + (seed mod 7)) );
    ( "layered_dense",
      fun seed ->
        Topo_gen.layered_dense ~layers:(1 + (seed mod 3))
          ~width:(1 + (seed / 3 mod 3))
          ~cap:1 );
    ("random_dag", Tutil.random_dag_of_seed);
  ]

(* Below the 1,299 cycles of a 3 x 3 [layered_dense], so on the
   largest dense draws both sides must raise it at the same cycle. *)
let oracle_budget = 1_000

(* [Cycles.search] against the complete list: the first [limit] matches
   in order; given one biconnected block, exactly the block's cycles;
   under a budget, the matches among the first [max_cycles] cycles,
   flagged when the budget ran out first. *)
let search_matches g cycles =
  let bad c = not (Cycles.is_cs4_cycle c) and any _ = true in
  let expect ?(max_cycles = max_int) p cs limit =
    let found = Tutil.take limit (List.filter p (Tutil.take max_cycles cs)) in
    (found, List.length found < limit && List.length cs > max_cycles)
  in
  let in_block es c =
    List.for_all
      (fun (o : Cycles.oriented) ->
        List.exists (fun (e : Graph.edge) -> e.id = o.Cycles.edge.Graph.id) es)
      c
  in
  Cycles.search g ~limit:2 bad = expect bad cycles 2
  && Cycles.search ~max_cycles:3 g ~limit:2 bad
     = expect ~max_cycles:3 bad cycles 2
  && List.for_all
       (fun es ->
         let mine = List.filter (in_block es) cycles in
         let within = List.map (fun (e : Graph.edge) -> e.id) es in
         Cycles.search ~within g ~limit:max_int any = (mine, false)
         && Cycles.search ~within g ~limit:3 bad = expect bad mine 3
         && Cycles.search ~max_cycles:2 ~within g ~limit:1 bad
            = expect ~max_cycles:2 bad mine 1)
       (Articulation.biconnected_components g)

let prop_matches_reference (name, family) =
  Tutil.qtest ~count:300
    (Printf.sprintf "enumerate = whole-graph DFS reference (%s)" name)
    Tutil.seed_gen (fun seed ->
      let g = family seed in
      let full =
        outcome (fun () -> Cycles.enumerate ~max_cycles:oracle_budget g)
      in
      let expected =
        outcome (fun () -> reference_enumerate ~max_cycles:oracle_budget g)
      in
      full = expected
      && outcome (fun () -> Cycles.enumerate ~max_cycles:3 g)
         = outcome (fun () -> reference_enumerate ~max_cycles:3 g)
      && outcome (fun () -> Cycles.count ~max_cycles:oracle_budget g)
         = Result.map List.length expected
      &&
      match expected with
      | Ok cycles -> search_matches g cycles
      | Error _ -> true)

let test_search_stops_early () =
  (* The chain has 1,034 cycles; the first is the first diamond's
     parallel pair, returned within a budget of one cycle. *)
  let g = Topo_gen.diamond_chain ~bypass:true ~diamonds:10 ~cap:1 () in
  Alcotest.(check bool) "first cycle found within budget 1" true
    (Cycles.search ~max_cycles:1 g ~limit:1 (fun _ -> true)
     = ([ List.hd (Cycles.enumerate g) ], false));
  Alcotest.(check bool) "no match within the budget" true
    (Cycles.search ~max_cycles:5 g ~limit:1 (fun _ -> false) = ([], true))

let test_pipeline_has_no_cycles () =
  (* All bridges: the traversal follows none of them. *)
  let g = Topo_gen.pipeline ~stages:5000 ~cap:1 in
  Alcotest.(check int) "no cycles" 0 (Cycles.count ~max_cycles:0 g)

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
    Alcotest.test_case "search stops at the first match" `Quick
      test_search_stops_early;
    Alcotest.test_case "pipeline: no cycles, no budget used" `Quick
      test_pipeline_has_no_cycles;
  ]
  @ List.map prop_matches_reference oracle_families
