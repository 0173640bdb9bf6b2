open Fstream_graph
open Fstream_spdag
open Fstream_ladder
open Fstream_workloads

let recognize g =
  match Topo.is_two_terminal g with
  | Some (x, y) ->
    Ladder.recognize_block ~source:x ~sink:y (Graph.edges g)
  | None -> Error "not two-terminal"

let test_fig4_left () =
  match recognize (Topo_gen.fig4_left ~cap:1) with
  | Error e -> Alcotest.failf "fig4 left should be a ladder: %s" e
  | Ok lad ->
    Alcotest.(check int) "one rung" 1 (Ladder.num_rungs lad);
    Alcotest.(check int) "source X" 0 lad.Ladder.source;
    Alcotest.(check int) "sink Y" 3 lad.Ladder.sink;
    let r = lad.Ladder.rungs.(0) in
    (* rail naming is arbitrary: normalize on the a(1) -> b(2) channel *)
    let ends = (r.Ladder.left_end, r.Ladder.right_end) in
    Alcotest.(check bool) "rung joins a and b" true
      (ends = (1, 2) || ends = (2, 1));
    Alcotest.(check bool) "rung directed a->b" true
      (if ends = (1, 2) then r.Ladder.left_to_right
       else not r.Ladder.left_to_right)

let test_fig5 () =
  let g = Topo_gen.fig5_ladder ~cap:2 in
  match recognize g with
  | Error e -> Alcotest.failf "fig5 should be a ladder: %s" e
  | Ok lad ->
    Alcotest.(check int) "three rungs into k" 3 (Ladder.num_rungs lad);
    (* rail naming is arbitrary: one rail is {b,f,j}, the other {k},
       and all rungs share the k endpoint *)
    let sorted a = List.sort compare (Array.to_list a) in
    let rails =
      List.sort compare
        [ sorted lad.Ladder.left_nodes; sorted lad.Ladder.right_nodes ]
    in
    Alcotest.(check (list (list int))) "rail vertex sets"
      [ [ 1; 5; 9 ]; [ 10 ] ]
      rails;
    let k_side r =
      if Array.to_list lad.Ladder.right_nodes = [ 10 ] then
        r.Ladder.right_end
      else r.Ladder.left_end
    in
    Alcotest.(check (list int)) "rungs share endpoint k" [ 10 ]
      (List.sort_uniq compare
         (Array.to_list (Array.map k_side lad.Ladder.rungs)));
    (* constituents partition the edges *)
    let ids =
      List.sort compare
        (List.map (fun (e : Graph.edge) -> e.id) (Ladder.edges lad))
    in
    Alcotest.(check (list int)) "edges partitioned"
      (List.init (Graph.num_edges g) Fun.id)
      ids;
    Alcotest.(check int) "constituent count: 4 left + 2 right + 3 rungs" 9
      (List.length (Ladder.constituents lad))

let test_not_ladders () =
  (match recognize (Topo_gen.fig4_butterfly ~cap:1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "butterfly must not be a ladder");
  (match recognize (Topo_gen.fig3_hexagon ()) with
  | Error e -> Alcotest.(check string) "SP is reported as such" "series-parallel" e
  | Ok _ -> Alcotest.fail "hexagon is SP, not a ladder");
  (* K4 as a DAG: not a ladder and not CS4 *)
  let k4 =
    Graph.make ~nodes:4
      [ (0, 1, 1); (0, 2, 1); (0, 3, 1); (1, 2, 1); (1, 3, 1); (2, 3, 1) ]
  in
  match recognize k4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "K4 must not be a ladder"

let test_classify_fig4_left () =
  match Cs4.classify (Topo_gen.fig4_left ~cap:1) with
  | Ok { blocks = [ (0, 3, Cs4.Ladder_block _) ]; _ } -> ()
  | Ok _ -> Alcotest.fail "expected a single ladder block"
  | Error e ->
    Alcotest.failf "classification failed: %s"
      (Format.asprintf "%a" Cs4.pp_failure e)

let test_classify_butterfly () =
  (match Cs4.classify (Topo_gen.fig4_butterfly ~cap:1) with
  | Error (Cs4.Bad_block _) -> ()
  | _ -> Alcotest.fail "butterfly should fail classification");
  Alcotest.(check bool) "brute agrees" false
    (Cs4.is_cs4_brute (Topo_gen.fig4_butterfly ~cap:1));
  match Cs4.classify (Topo_gen.fig4_butterfly ~cap:1) with
  | Error (Cs4.Bad_block { block_ids; _ }) -> (
    match
      Cs4.block_witnesses (Topo_gen.fig4_butterfly ~cap:1) ~block_ids ~limit:1
    with
    | c :: _, false ->
      Alcotest.(check (list int)) "witness is the a-c-b-d cycle" [ 1; 2 ]
        (Cycles.cycle_sources c)
    | _ -> Alcotest.fail "expected a bad-cycle witness")
  | _ -> Alcotest.fail "butterfly should fail classification"

let test_classify_serial_mix () =
  (* hexagon ; fig4-left ; single edge, composed serially *)
  let edges =
    List.concat
      [
        (* hexagon on 0..5 (sink 3) *)
        [ (0, 1, 2); (1, 2, 5); (2, 3, 1); (0, 4, 3); (4, 5, 1); (5, 3, 2) ];
        (* fig4-left on 3,6,7,8 *)
        [ (3, 6, 1); (3, 7, 1); (6, 7, 1); (6, 8, 1); (7, 8, 1) ];
        [ (8, 9, 4) ];
      ]
  in
  let g = Graph.make ~nodes:10 edges in
  match Cs4.classify g with
  | Error e -> Alcotest.failf "should classify: %s" (Format.asprintf "%a" Cs4.pp_failure e)
  | Ok { blocks; source; sink; _ } ->
    Alcotest.(check int) "source" 0 source;
    Alcotest.(check int) "sink" 9 sink;
    let shape =
      List.map
        (fun (_, _, b) ->
          match b with Cs4.Sp_block _ -> "sp" | Cs4.Ladder_block _ -> "lad")
        blocks
    in
    Alcotest.(check (list string)) "block shapes" [ "sp"; "lad"; "sp" ] shape

let prop_random_ladder_recognized =
  Tutil.qtest "generated ladders are recognized as single ladder blocks"
    Tutil.seed_gen (fun seed ->
      let g = Tutil.random_ladder_of_seed seed in
      match Cs4.classify g with
      | Ok { blocks; _ } ->
        List.exists
          (fun (_, _, b) -> match b with Cs4.Ladder_block _ -> true | _ -> false)
          blocks
      | Error _ -> false)

let prop_ladder_edges_partition =
  Tutil.qtest "ladder constituents partition the block edges" Tutil.seed_gen
    (fun seed ->
      let g = Tutil.random_ladder_of_seed seed in
      match Cs4.classify g with
      | Error _ -> false
      | Ok { blocks; _ } ->
        let ids =
          List.concat_map
            (fun (_, _, b) ->
              match b with
              | Cs4.Sp_block t -> List.map (fun (e : Graph.edge) -> e.id) (Sp_tree.edges t)
              | Cs4.Ladder_block lad ->
                List.map (fun (e : Graph.edge) -> e.id) (Ladder.edges lad))
            blocks
        in
        List.sort compare ids = List.init (Graph.num_edges g) Fun.id)

let prop_theorem_v7 =
  (* Theorem V.7, computationally: the constructive classifier agrees
     with the brute-force cycle-structure definition of CS4. *)
  Tutil.qtest ~count:300 "Theorem V.7: classifier = brute force"
    Tutil.seed_gen (fun seed ->
      let g = Tutil.random_dag_of_seed seed in
      Cs4.is_cs4 g = Cs4.is_cs4_brute g)

let prop_theorem_v7_on_cs4 =
  Tutil.qtest ~count:200 "generated CS4 graphs satisfy both definitions"
    Tutil.seed_gen (fun seed ->
      let g = Tutil.random_cs4_of_seed seed in
      Cs4.is_cs4 g && Cs4.is_cs4_brute g)

let prop_ladders_are_cs4_brute =
  (* Corollary V.5: every SP-ladder is CS4. *)
  Tutil.qtest ~count:150 "Corollary V.5 on generated ladders" Tutil.seed_gen
    (fun seed ->
      let g = Tutil.random_ladder_of_seed ~max_rungs:4 seed in
      Cs4.is_cs4_brute g)

let prop_rung_order_consistent =
  (* Non-crossing: rung endpoints are monotone along both rails. *)
  Tutil.qtest "rungs are order-consistent on both rails" Tutil.seed_gen
    (fun seed ->
      let g = Tutil.random_ladder_of_seed seed in
      match Cs4.classify g with
      | Error _ -> false
      | Ok { blocks; _ } ->
        List.for_all
          (fun (_, _, b) ->
            match b with
            | Cs4.Sp_block _ -> true
            | Cs4.Ladder_block lad ->
              let pos nodes =
                let t = Hashtbl.create 16 in
                Array.iteri (fun i v -> Hashtbl.replace t v i) nodes;
                Hashtbl.find t
              in
              let pl = pos lad.Ladder.left_nodes
              and pr = pos lad.Ladder.right_nodes in
              let monotone f =
                let prev = ref (-1) in
                Array.for_all
                  (fun r ->
                    let p = f r in
                    let ok = p >= !prev in
                    prev := p;
                    ok)
                  lad.Ladder.rungs
              in
              monotone (fun r -> pl r.Ladder.left_end)
              && monotone (fun r -> pr r.Ladder.right_end))
          blocks)

let prop_fact_vi_1 =
  (* Facts VI.1/VI.3: in a ladder, the source of every cycle that spans
     more than one constituent is the ladder source or a cross-link
     tail, and its sink is the ladder sink or a cross-link head. *)
  Tutil.qtest ~count:100 "Fact VI.1: external cycle sources are rung tails"
    Tutil.seed_gen (fun seed ->
      let g = Tutil.random_ladder_of_seed ~max_rungs:4 seed in
      match Cs4.classify g with
      | Error _ -> false
      | Ok { blocks; _ } ->
        List.for_all
          (fun (bsrc, bsnk, b) ->
            match b with
            | Cs4.Sp_block _ -> true
            | Cs4.Ladder_block lad ->
              let rung_tails, rung_heads =
                Array.fold_left
                  (fun (tails, heads) r ->
                    if r.Ladder.left_to_right then
                      (r.Ladder.left_end :: tails, r.Ladder.right_end :: heads)
                    else
                      (r.Ladder.right_end :: tails, r.Ladder.left_end :: heads))
                  ([], []) lad.Ladder.rungs
              in
              (* a cycle is external iff it uses edges of more than one
                 constituent *)
              let constituent_of =
                let t = Hashtbl.create 32 in
                List.iteri
                  (fun ci (_, tree) ->
                    List.iter
                      (fun (e : Graph.edge) -> Hashtbl.replace t e.id ci)
                      (Fstream_spdag.Sp_tree.edges tree))
                  (Ladder.constituents lad);
                Hashtbl.find t
              in
              List.for_all
                (fun c ->
                  let cs =
                    List.sort_uniq compare
                      (List.map
                         (fun o -> constituent_of o.Cycles.edge.Graph.id)
                         c)
                  in
                  List.length cs <= 1
                  ||
                  match (Cycles.cycle_sources c, Cycles.cycle_sinks c) with
                  | [ s ], [ t ] ->
                    (s = bsrc || List.mem s rung_tails)
                    && (t = bsnk || List.mem t rung_heads)
                  | _ -> false)
                (Cycles.enumerate g))
          blocks)

(* Oracle: the graph-sized reduction the block-local one replaced,
   kept verbatim — per-node [Iset] arrays of length [nodes] and a
   (src, dst) pair table. [Cs4.classify] must build exactly the
   classification this reduction yields, block order, super-edge
   order and every decomposition tree included. *)
module Reference_reduce = struct
  module Iset = Set.Make (Int)

  type state = {
    live : (int, Graph.node * Graph.node * Sp_tree.t) Hashtbl.t;
    mutable next_id : int;
    out_s : Iset.t array;
    in_s : Iset.t array;
    pair : (Graph.node * Graph.node, int) Hashtbl.t;
    queue : Graph.node Queue.t;
  }

  let remove_edge st id =
    let src, dst, _ = Hashtbl.find st.live id in
    Hashtbl.remove st.live id;
    st.out_s.(src) <- Iset.remove id st.out_s.(src);
    st.in_s.(dst) <- Iset.remove id st.in_s.(dst);
    if Hashtbl.find_opt st.pair (src, dst) = Some id then
      Hashtbl.remove st.pair (src, dst)

  let rec add_edge st src dst tree =
    match Hashtbl.find_opt st.pair (src, dst) with
    | Some other ->
      let _, _, tree' = Hashtbl.find st.live other in
      remove_edge st other;
      add_edge st src dst (Sp_tree.parallel tree' tree)
    | None ->
      let id = st.next_id in
      st.next_id <- id + 1;
      Hashtbl.replace st.live id (src, dst, tree);
      st.out_s.(src) <- Iset.add id st.out_s.(src);
      st.in_s.(dst) <- Iset.add id st.in_s.(dst);
      Hashtbl.replace st.pair (src, dst) id;
      Queue.add src st.queue;
      Queue.add dst st.queue

  let try_series st ~protect v =
    if (not (protect v))
       && Iset.cardinal st.in_s.(v) = 1
       && Iset.cardinal st.out_s.(v) = 1
    then begin
      let ein = Iset.choose st.in_s.(v) and eout = Iset.choose st.out_s.(v) in
      let u, _, t_in = Hashtbl.find st.live ein in
      let _, w, t_out = Hashtbl.find st.live eout in
      remove_edge st ein;
      remove_edge st eout;
      add_edge st u w (Sp_tree.series t_in t_out)
    end

  let reduce ~nodes ~protect edges =
    let st =
      {
        live = Hashtbl.create (2 * List.length edges);
        next_id = 0;
        out_s = Array.make nodes Iset.empty;
        in_s = Array.make nodes Iset.empty;
        pair = Hashtbl.create (2 * List.length edges);
        queue = Queue.create ();
      }
    in
    List.iter
      (fun (e : Graph.edge) -> add_edge st e.src e.dst (Sp_tree.leaf e))
      edges;
    while not (Queue.is_empty st.queue) do
      try_series st ~protect (Queue.pop st.queue)
    done;
    Hashtbl.fold
      (fun _ (s_src, s_dst, s_tree) acc ->
        { Sp_recognize.s_src; s_dst; s_tree } :: acc)
      st.live []

  let classify g =
    match Topo.is_two_terminal g with
    | None -> Error Cs4.Not_two_terminal
    | Some (x, y) when x = y -> Error Cs4.Not_two_terminal
    | Some _ when not (Topo.connected g) -> Error Cs4.Not_two_terminal
    | Some (x, y) ->
      let nodes = Graph.num_nodes g in
      let rec go acc ids = function
        | [] ->
          Ok
            {
              Cs4.source = x;
              sink = y;
              blocks = List.rev acc;
              block_ids = List.rev ids;
            }
        | (source, sink, edges) :: rest -> (
          let core =
            reduce ~nodes ~protect:(fun v -> v = source || v = sink) edges
          in
          let block =
            match core with
            | [ { Sp_recognize.s_src; s_dst; s_tree } ]
              when s_src = source && s_dst = sink ->
              Ok (Cs4.Sp_block s_tree)
            | core ->
              Result.map
                (fun l -> Cs4.Ladder_block l)
                (Ladder.of_core ~source ~sink core)
          in
          let block_ids = List.map (fun (e : Graph.edge) -> e.id) edges in
          match block with
          | Ok b -> go ((source, sink, b) :: acc) (block_ids :: ids) rest
          | Error reason ->
            Error
              (Cs4.Bad_block
                 { block_source = source; block_sink = sink; block_ids; reason }))
      in
      go [] [] (Articulation.serial_blocks g)
end

let classify_families =
  [
    ("random_sp", Tutil.random_sp_of_seed ?max_edges:None);
    ("random_ladder", Tutil.random_ladder_of_seed ?max_rungs:None);
    ("random_cs4", Tutil.random_cs4_of_seed ~max_blocks:4);
    ("random_dag", Tutil.random_dag_of_seed);
    ("random_dense", Tutil.random_dense_of_seed);
    ( "diamond_chain",
      fun seed ->
        Topo_gen.diamond_chain ~bypass:(seed mod 2 = 1)
          ~diamonds:(1 + (seed / 2 mod 8))
          ~cap:1 () );
    (* every block a single edge, the classifier's short path *)
    ( "pipeline",
      fun seed ->
        Topo_gen.pipeline ~stages:(1 + (seed mod 40)) ~cap:(1 + (seed mod 3)) );
    (* consecutive stages joined by one to three parallel edges: bridges
       and two-edge SP blocks *)
    ( "multi_edge_pipeline",
      fun seed ->
        let rng = Tutil.rng_of seed in
        let stages = 1 + Random.State.int rng 20 in
        Graph.make ~nodes:(stages + 1)
          (List.concat
             (List.init stages (fun i ->
                  List.init
                    (1 + Random.State.int rng 3)
                    (fun _ -> (i, i + 1, 1 + Random.State.int rng 4))))) );
    ("bridged_cs4", Tutil.bridged_cs4_of_seed);
  ]

(* A random two-terminal DAG with a directed cycle added: a back edge
   from the sink to the source. *)
let cyclic g =
  match Topo.is_two_terminal g with
  | Some (x, y) when x <> y ->
    Graph.make ~nodes:(Graph.num_nodes g)
      ((y, x, 1)
      :: List.map (fun (e : Graph.edge) -> (e.src, e.dst, e.cap)) (Graph.edges g))
  | _ -> g

(* The set-based Kahn sort [Topo.order] used before its min-heap: the
   smallest ready node id first. *)
let reference_order g =
  let n = Graph.num_nodes g in
  let indeg = Array.init n (Graph.in_degree g) in
  let module Iset = Set.Make (Int) in
  let ready = ref Iset.empty in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then ready := Iset.add v !ready
  done;
  let rec loop acc count =
    match Iset.min_elt_opt !ready with
    | None -> if count = n then Some (List.rev acc) else None
    | Some v ->
      ready := Iset.remove v !ready;
      List.iter
        (fun (e : Graph.edge) ->
          indeg.(e.dst) <- indeg.(e.dst) - 1;
          if indeg.(e.dst) = 0 then ready := Iset.add e.dst !ready)
        (Graph.out_edges g v);
      loop (v :: acc) (count + 1)
  in
  loop [] 0

let prop_order_matches_reference (name, family) =
  Tutil.qtest ~count:200
    (Printf.sprintf "Topo.order = set-based reference (%s, and cyclic)" name)
    Tutil.seed_gen (fun seed ->
      let g = family seed in
      (* relabel the nodes so that id order is not the generator's *)
      let n = Graph.num_nodes g in
      let perm = Array.init n (fun v -> (v * 7919) mod n) in
      let perm =
        if List.sort_uniq compare (Array.to_list perm) = List.init n Fun.id
        then perm
        else Array.init n Fun.id
      in
      let h =
        Graph.make ~nodes:n
          (List.map
             (fun (e : Graph.edge) -> (perm.(e.src), perm.(e.dst), e.cap))
             (Graph.edges g))
      in
      List.for_all
        (fun g -> Topo.order g = Option.map Array.of_list (reference_order g))
        [ g; cyclic g; h; cyclic h ])

let prop_classify_matches_reference (name, family) =
  Tutil.qtest ~count:300
    (Printf.sprintf "classify = graph-sized reduction reference (%s)" name)
    Tutil.seed_gen (fun seed ->
      let g = family seed in
      (* a whole-graph reduction with one inner node protected, so
         stalled cores with more than two terminals are compared too *)
      let inner = Graph.num_nodes g / 2 in
      let protect v = v = 0 || v = inner || v = Graph.num_nodes g - 1 in
      Cs4.classify g = Reference_reduce.classify g
      && Sp_recognize.reduce ~protect (Graph.edges g)
         = Reference_reduce.reduce ~nodes:(Graph.num_nodes g) ~protect
             (Graph.edges g))

(* The edge ids [classify] keeps per block are exactly the edges of
   the recognized block (as sets: the compiler's splice and ancestry
   read them in any order). *)
let prop_block_ids_match_blocks (name, family) =
  Tutil.qtest ~count:200
    (Printf.sprintf "block_ids = the blocks' own edges (%s)" name)
    Tutil.seed_gen (fun seed ->
      match Cs4.classify (family seed) with
      | Error _ -> QCheck.assume_fail ()
      | Ok c ->
        let own (_, _, b) =
          let edges =
            match b with
            | Cs4.Sp_block t -> Sp_tree.edges t
            | Cs4.Ladder_block l -> Ladder.edges l
          in
          List.sort compare (List.map (fun (e : Graph.edge) -> e.id) edges)
        in
        List.length c.blocks = List.length c.block_ids
        && List.for_all2
             (fun blk ids -> own blk = List.sort compare ids)
             c.blocks c.block_ids)

(* A capacity-only edit keeps the decomposition: refreshing each
   block of the old classification with the resized graph's records
   must give exactly the classification of the resized graph, summaries
   included. *)
let prop_refresh_matches_reclassify =
  Tutil.qtest ~count:300 "refresh after resize = reclassify"
    Tutil.seed_gen (fun seed ->
      let g =
        match seed mod 3 with
        | 0 -> Tutil.random_sp_of_seed seed
        | 1 -> Tutil.random_ladder_of_seed seed
        | _ -> Tutil.random_cs4_of_seed ~max_blocks:4 seed
      in
      let rng = Tutil.rng_of (seed + 0x7e5) in
      let g' =
        Graph.map_caps g (fun e ->
            if Random.State.bool rng then 1 + Random.State.int rng 9
            else e.Graph.cap)
      in
      match (Cs4.classify g, Cs4.classify g') with
      | Ok c, Ok c' ->
        let refresh = function
          | Cs4.Sp_block t -> Cs4.Sp_block (Sp_tree.refresh g' t)
          | Cs4.Ladder_block l -> Cs4.Ladder_block (Ladder.refresh g' l)
        in
        let blocks =
          List.map (fun (a, b, blk) -> (a, b, refresh blk)) c.Cs4.blocks
        in
        { c with blocks } = c'
      | Error _, Error _ -> QCheck.assume_fail ()
      | _ -> Alcotest.fail "a capacity change moved the classification")

let suite =
  [
    Alcotest.test_case "fig4 left ladder" `Quick test_fig4_left;
    Alcotest.test_case "fig5 decomposition" `Quick test_fig5;
    Alcotest.test_case "non-ladders rejected" `Quick test_not_ladders;
    Alcotest.test_case "classify fig4 left" `Quick test_classify_fig4_left;
    Alcotest.test_case "classify butterfly" `Quick test_classify_butterfly;
    Alcotest.test_case "classify serial mix" `Quick test_classify_serial_mix;
    prop_random_ladder_recognized;
    prop_ladder_edges_partition;
    prop_theorem_v7;
    prop_theorem_v7_on_cs4;
    prop_ladders_are_cs4_brute;
    prop_rung_order_consistent;
    prop_fact_vi_1;
    prop_refresh_matches_reclassify;
  ]
  @ List.map prop_classify_matches_reference classify_families
  @ List.map prop_block_ids_match_blocks classify_families
  @ List.map prop_order_matches_reference classify_families
