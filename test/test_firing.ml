(* Golden regression for the sequential node step. [test_sched] pins
   the engine against the test-side sweep, but both run the same
   {!Fstream_runtime.Firing} step, so a change common to both would
   slip past it. This suite pins the full sequential [Report.t] of a
   fixed corpus — fig2, the 97-node deep pipeline, the wide ladder and
   three random CS4 graphs, under each avoidance mode — against values
   recorded before the step was shared. The labels keep the "batch 1"
   suffix they were recorded under.

   Each report renders to one line: outcome, rounds, data, dummies,
   dropped, sink data, then digests of the per-edge dummy counts and
   of the wedge snapshot. The corpus covers wedges, dummy traffic and
   dropped dummies. *)

open Fstream_core
open Fstream_runtime
open Fstream_workloads

let corpus =
  [
    ("fig2", 0.8, Topo_gen.fig2_triangle ~cap:2);
    (* nearly lossless stages, so data still reaches the sink *)
    ("deep-pipeline", 0.97, Topo_gen.pipeline ~stages:96 ~cap:2);
    ("wide-ladder", 0.8, Topo_gen.wide_ladder ~rungs:6 ~cap:2);
  ]
  @ List.map
      (fun seed ->
        ( Printf.sprintf "random-cs4/%d" seed,
          0.8,
          Topo_gen.random_cs4
            (Random.State.make [| seed |])
            ~blocks:3 ~block_edges:8 ~max_cap:4 ))
      [ 1; 2; 3 ]

let avoidances g =
  let table mode thresholds =
    match Compiler.compile mode g with
    | Ok p -> thresholds g p.Compiler.intervals
    | Error e -> Alcotest.fail (Compiler.error_to_string e)
  in
  [
    ("none", Engine.No_avoidance);
    ( "prop",
      Engine.Propagation
        (table Compiler.Propagation Compiler.propagation_thresholds) );
    ( "nonprop",
      Engine.Non_propagation
        (table Compiler.Non_propagation Compiler.send_thresholds) );
  ]

let digest parts =
  String.sub (Digest.to_hex (Digest.string (String.concat "|" parts))) 0 12

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))
let bools a = String.concat "," (Array.to_list (Array.map string_of_bool a))

let render (r : Report.t) =
  let outcome =
    match r.outcome with
    | Report.Completed -> "completed"
    | Report.Deadlocked -> "deadlocked"
    | Report.Budget_exhausted -> "budget"
  in
  let wedge =
    match Report.wedge r with
    | None -> "-"
    | Some w ->
      digest
        [ ints w.channel_lengths; bools w.node_blocked; bools w.node_finished ]
  in
  Printf.sprintf "%s r=%d d=%d u=%d x=%d s=%d pe=%s w=%s" outcome
    (Option.value (Report.rounds r) ~default:(-1))
    r.data_messages r.dummy_messages r.dropped_dummies r.sink_data
    (digest [ ints r.per_edge_dummies ])
    wedge

let run g ~keep ~seed avoidance =
  let rng = Random.State.make [| seed; 0xf17e |] in
  Engine.run ~graph:g
    ~kernels:
      (Filters.for_graph g (fun _ outs -> Filters.bernoulli rng ~keep outs))
    ~inputs:40 ~avoidance ()

(* Every (label, report) of the corpus, in a fixed order. *)
let reports () =
  List.concat_map
    (fun (name, keep, g) ->
      List.map
        (fun (mode, avoidance) ->
          ( Printf.sprintf "%s %s batch 1" name mode,
            run g ~keep ~seed:(String.length name) avoidance ))
        (avoidances g))
    corpus

(* Recorded from the engine before the node step moved into [Firing]. *)
let golden =
  [
    ("fig2 none batch 1",
     "deadlocked r=8 d=11 u=0 x=0 s=5 pe=9e776694a38d w=2bda1e53c72b");
    ("fig2 prop batch 1",
     "completed r=43 d=88 u=8 x=0 s=59 pe=b091f7d9dd76 w=-");
    ("fig2 nonprop batch 1",
     "completed r=43 d=88 u=28 x=0 s=59 pe=20f6b3ed22fb w=-");
    ("deep-pipeline none batch 1",
     "completed r=42 d=973 u=0 x=0 s=2 pe=8812678d8110 w=-");
    ("deep-pipeline prop batch 1",
     "completed r=42 d=973 u=0 x=0 s=2 pe=8812678d8110 w=-");
    ("deep-pipeline nonprop batch 1",
     "completed r=42 d=973 u=0 x=0 s=2 pe=8812678d8110 w=-");
    ("wide-ladder none batch 1",
     "deadlocked r=6 d=10 u=0 x=0 s=0 pe=09c67d761710 w=5d5b55aff0b5");
    ("wide-ladder prop batch 1",
     "completed r=47 d=498 u=177 x=0 s=40 pe=fd383a9874dd w=-");
    ("wide-ladder nonprop batch 1",
     "completed r=42 d=477 u=323 x=0 s=39 pe=39214ec9c127 w=-");
    ("random-cs4/1 none batch 1",
     "deadlocked r=29 d=284 u=0 x=0 s=41 pe=1181f0a8a4a1 w=cf0d65faef22");
    ("random-cs4/1 prop batch 1",
     "completed r=46 d=662 u=169 x=0 s=131 pe=e4e2980199f4 w=-");
    ("random-cs4/1 nonprop batch 1",
     "completed r=48 d=601 u=276 x=2 s=116 pe=bc9689d22661 w=-");
    ("random-cs4/2 none batch 1",
     "deadlocked r=4 d=24 u=0 x=0 s=0 pe=1181f0a8a4a1 w=8684f4a122f3");
    ("random-cs4/2 prop batch 1",
     "completed r=43 d=729 u=216 x=0 s=142 pe=643da22350c9 w=-");
    ("random-cs4/2 nonprop batch 1",
     "completed r=43 d=729 u=205 x=0 s=142 pe=98cbb16b61c4 w=-");
    ("random-cs4/3 none batch 1",
     "deadlocked r=29 d=309 u=0 x=0 s=40 pe=1181f0a8a4a1 w=894ff3d9a701");
    ("random-cs4/3 prop batch 1",
     "completed r=46 d=445 u=102 x=1 s=62 pe=c6189fc298b6 w=-");
    ("random-cs4/3 nonprop batch 1",
     "completed r=45 d=456 u=59 x=1 s=59 pe=f463c3e94cf2 w=-");
  ]

let test_golden () =
  let got = List.map (fun (label, r) -> (label, render r)) (reports ()) in
  Alcotest.(check int) "corpus size" (List.length golden) (List.length got);
  List.iter2
    (fun (label, want) (label', line) ->
      Alcotest.(check string) "case order" label label';
      Alcotest.(check string) label want line)
    golden got

let suite = [ Alcotest.test_case "golden sequential reports" `Quick test_golden ]
