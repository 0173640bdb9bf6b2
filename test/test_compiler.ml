open Fstream_core
open Fstream_workloads

let test_routes () =
  (match Compiler.compile Compiler.Propagation (Topo_gen.fig3_hexagon ()) with
  | Ok { route = Compiler.Cs4_route _; _ } -> ()
  | _ -> Alcotest.fail "hexagon should take the CS4 route");
  (match Compiler.compile Compiler.Propagation (Topo_gen.fig4_butterfly ~cap:1) with
  | Ok { route = Compiler.General_route { cycles = 7 }; _ } -> ()
  | _ -> Alcotest.fail "butterfly should take the general route");
  match
    Compiler.compile ~options:{ Compiler.Options.default with allow_general = false } Compiler.Propagation
      (Topo_gen.fig4_butterfly ~cap:1)
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "butterfly must be rejected without fallback"

let test_route_pp () =
  match Compiler.compile Compiler.Propagation (Topo_gen.fig4_left ~cap:1) with
  | Ok p ->
    Alcotest.(check string) "route rendering" "CS4 (0 SP blocks, 1 ladder)"
      (Format.asprintf "%a" Compiler.pp_route p.route)
  | Error e -> Alcotest.fail (Compiler.error_to_string e)

let test_not_a_dag () =
  let g =
    Fstream_graph.Graph.make ~nodes:3 [ (0, 1, 1); (1, 2, 1); (2, 0, 1) ]
  in
  match Compiler.compile Compiler.Propagation g with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "directed cycle must be rejected"

let test_max_cycles_cutoff () =
  let g = Topo_gen.diamond_chain ~bypass:true ~diamonds:12 ~cap:1 () in
  (* the graph is SP so the CS4 route handles it; force the general
     fallback by asking for a non-CS4... instead check plan still works *)
  match Compiler.compile Compiler.Propagation g with
  | Ok { route = Compiler.Cs4_route _; _ } -> ()
  | _ -> Alcotest.fail "SP graph must avoid cycle enumeration entirely"

let test_thresholds () =
  let g = Topo_gen.fig3_hexagon () in
  match Compiler.compile Compiler.Non_propagation g with
  | Error e -> Alcotest.fail (Compiler.error_to_string e)
  | Ok p ->
    Alcotest.(check (array (option int))) "floor-clamped thresholds"
      [| Some 2; Some 2; Some 2; Some 2; Some 2; Some 2 |]
      (Thresholds.to_array (Compiler.send_thresholds g p.intervals));
    (match Compiler.compile Compiler.Propagation g with
    | Error e -> Alcotest.fail (Compiler.error_to_string e)
    | Ok p ->
      Alcotest.(check (array (option int)))
        "propagation thresholds: budgets at the split, eager relays"
        [| Some 6; Some 1; Some 1; Some 8; Some 1; Some 1 |]
        (Thresholds.to_array (Compiler.propagation_thresholds g p.intervals)))

let test_propagation_thresholds_bridges () =
  (* pipeline edges lie on no cycle: no dummies ever *)
  let g = Topo_gen.pipeline ~stages:3 ~cap:1 in
  match Compiler.compile Compiler.Propagation g with
  | Error e -> Alcotest.fail (Compiler.error_to_string e)
  | Ok p ->
    Alcotest.(check (array (option int))) "bridge edges get no threshold"
      [| None; None; None |]
      (Thresholds.to_array (Compiler.propagation_thresholds g p.intervals))

let prop_nonprop_at_most_prop =
  (* Non-propagation intervals divide by hop count, so they can only be
     tighter than the relay table, which in turn lower-bounds nothing of
     the propagation table on its finite entries... the robust invariant:
     nonprop <= relay <= any finite propagation entry on the same edge. *)
  Tutil.qtest ~count:150 "table ordering: nonprop <= relay <= prop(finite)"
    Tutil.seed_gen (fun seed ->
      let g = Tutil.random_cs4_of_seed seed in
      match
        ( Compiler.compile Compiler.Non_propagation g,
          Compiler.compile Compiler.Relay_propagation g,
          Compiler.compile Compiler.Propagation g )
      with
      | Ok np, Ok rl, Ok pr ->
        let ok = ref true in
        Array.iteri
          (fun i v ->
            if Interval.compare v rl.intervals.(i) > 0 then ok := false;
            if Interval.compare rl.intervals.(i) pr.intervals.(i) > 0 then
              ok := false)
          np.intervals;
        !ok
      | _ -> false)

let prop_finite_iff_on_cycle =
  (* an edge has a finite non-propagation interval iff it lies on some
     undirected simple cycle *)
  Tutil.qtest ~count:150 "finite interval iff edge on a cycle" Tutil.seed_gen
    (fun seed ->
      let g = Tutil.random_cs4_of_seed seed in
      match Compiler.compile Compiler.Non_propagation g with
      | Error _ -> false
      | Ok p ->
        let on_cycle = Array.make (Fstream_graph.Graph.num_edges g) false in
        List.iter
          (fun c ->
            List.iter
              (fun o -> on_cycle.(o.Fstream_graph.Cycles.edge.id) <- true)
              c)
          (Fstream_graph.Cycles.enumerate g);
        Array.for_all Fun.id
          (Array.mapi
             (fun i v -> Interval.is_finite v = on_cycle.(i))
             p.intervals))

(* ----- typed cycle budget ----- *)

let tight_budget backend =
  { Compiler.Options.default with max_cycles = 2; backend }

let test_budget_exact_errors () =
  match
    Compiler.compile ~options:(tight_budget Compiler.Exact)
      Compiler.Non_propagation (Topo_gen.fig4_butterfly ~cap:2)
  with
  | Error (Compiler.Cycle_budget_exceeded 2) -> ()
  | Error e ->
    Alcotest.failf "wrong error: %s" (Compiler.error_to_string e)
  | Ok _ -> Alcotest.fail "7 cycles past a budget of 2 must not compile"

let test_budget_auto_falls_back () =
  let g = Topo_gen.fig4_butterfly ~cap:2 in
  let lp = { Compiler.Options.default with backend = Compiler.Lp } in
  match
    ( Compiler.compile ~options:(tight_budget Compiler.Auto)
        Compiler.Non_propagation g,
      Compiler.compile ~options:lp Compiler.Non_propagation g )
  with
  | Error e, _ | _, Error e -> Alcotest.fail (Compiler.error_to_string e)
  | Ok ({ route = Compiler.Lp_route _; _ } as auto), Ok lp ->
    Tutil.check_intervals "auto past the budget = the LP table"
      lp.intervals auto.intervals
  | Ok p, Ok _ ->
    Alcotest.failf "expected the LP route, got %a" Compiler.pp_route p.route

(* ----- an independent oracle for the cold route ----- *)

(* [Compiler.compile] runs the paper's per-block updates over
   [Cs4.classify]'s blocks, or the general fallback off CS4; the oracle
   folds the general-DAG constraints over every simple cycle of the
   whole graph, which shares neither the classification nor the block
   algorithms. *)
let classic_general_table algorithm g =
  let ivals = Array.make (Fstream_graph.Graph.num_edges g) Interval.inf in
  let fold =
    match algorithm with
    | Compiler.Propagation -> General.update_propagation
    | Compiler.Non_propagation -> General.update_non_propagation
    | Compiler.Relay_propagation -> General.update_relay_propagation
  in
  List.iter (fold ivals) (Fstream_graph.Cycles.enumerate g);
  ivals

let algorithms =
  [ ("prop", Compiler.Propagation); ("nonprop", Compiler.Non_propagation);
    ("relay", Compiler.Relay_propagation) ]

let random_dense_of_seed seed =
  let rng = Tutil.rng_of seed in
  Topo_gen.random_dense rng
    ~layers:(1 + Random.State.int rng 2)
    ~width:(2 + Random.State.int rng 2)
    ~max_cap:4

let oracle_families =
  [ ("sp", Tutil.random_sp_of_seed ?max_edges:None);
    ("ladder", Tutil.random_ladder_of_seed ?max_rungs:None);
    ("cs4", Tutil.random_cs4_of_seed ?max_blocks:None);
    ("butterfly", fun seed -> Topo_gen.fig4_butterfly ~cap:(1 + (seed mod 7)));
    ("random dag", Tutil.random_dag_of_seed);
    ("random dense", random_dense_of_seed) ]

(* Capacities sum to at most [Graph.max_total_cap]. A file past it is
   an [Error] (exit 1 at the CLI), not path sums that wrap; a graph at
   exactly the bound compiles under every algorithm and backend. It is
   never run: its rings would hold 2^30 messages. *)
let test_capacity_bound () =
  let text a b =
    Printf.sprintf "nodes 4\nedge 0 1 %d\nedge 1 3 %d\nedge 0 2 1\nedge 2 3 1\n"
      a b
  in
  (match Graph_io.of_string (text max_int max_int) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "capacities summing past the bound were accepted");
  let half = Fstream_graph.Graph.max_total_cap / 2 in
  match Graph_io.of_string (text half (half - 2)) with
  | Error e -> Alcotest.fail e
  | Ok g ->
    List.iter
      (fun (aname, algorithm) ->
        List.iter
          (fun backend ->
            match
              Compiler.compile
                ~options:{ Compiler.Options.default with backend }
                algorithm g
            with
            | Ok _ -> ()
            | Error e ->
              Alcotest.failf "%s: %s" aname (Compiler.error_to_string e))
          [ Compiler.Exact; Compiler.Lp; Compiler.Auto ])
      algorithms

let cold_route_oracle (aname, algorithm) (fname, family) =
  Tutil.qtest ~count:300
    (Printf.sprintf "compile = classic oracle (%s, %s)" aname fname)
    Tutil.seed_gen (fun seed ->
      let g = family seed in
      let expected = classic_general_table algorithm g in
      match Compiler.compile algorithm g with
      | Error e -> Alcotest.fail (Compiler.error_to_string e)
      | Ok p ->
        Tutil.check_intervals "compile = oracle" expected p.intervals;
        true)

let suite =
  [
    Alcotest.test_case "routing decisions" `Quick test_routes;
    Alcotest.test_case "route printing" `Quick test_route_pp;
    Alcotest.test_case "cyclic graph rejected" `Quick test_not_a_dag;
    Alcotest.test_case "SP avoids enumeration" `Quick test_max_cycles_cutoff;
    Alcotest.test_case "threshold tables" `Quick test_thresholds;
    Alcotest.test_case "capacities bounded, compiled at the bound" `Quick
      test_capacity_bound;
    Alcotest.test_case "bridge thresholds" `Quick
      test_propagation_thresholds_bridges;
    prop_nonprop_at_most_prop;
    prop_finite_iff_on_cycle;
    Alcotest.test_case "cycle budget: Exact errors" `Quick
      test_budget_exact_errors;
    Alcotest.test_case "cycle budget: Auto falls back to LP" `Quick
      test_budget_auto_falls_back;
  ]
  @ List.concat_map
      (fun a -> List.map (cold_route_oracle a) oracle_families)
      algorithms
