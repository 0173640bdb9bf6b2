(* Benchmark harness: regenerates every figure and headline claim of
   the paper (see DESIGN.md, per-experiment index, and EXPERIMENTS.md
   for the measured-vs-paper discussion).

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe -- F3 C4   # a subset
     dune exec bench/main.exe -- micro   # bechamel microbenchmarks   *)

open Fstream_graph
open Fstream_spdag
open Fstream_ladder
open Fstream_core
open Fstream_runtime
open Fstream_workloads
open Bench_util
module Verify = Fstream_verify.Verify
module Repair = Fstream_repair.Repair
module Lint = Fstream_analysis.Lint
module P = Fstream_parallel.Parallel_engine

(* ------------------------------------------------------------------ *)
(* F1. Fig. 1: split/join object recognition, wrapper comparison.      *)

let f1 () =
  section "F1" "Fig. 1 split/join with filtering (object recognition)";
  let g = Topo_gen.fig1_split_join ~branches:4 ~cap:2 in
  let split = 0 in
  let hit_rate = [| 0.9; 0.5; 0.2; 0.05 |] in
  let kernels () =
    let rng = Random.State.make [| 7; 7; 7 |] in
    Filters.for_graph g (fun v outs ->
        if v = split then fun ~seq:_ ~got:_ ->
          List.filter (fun _ -> Random.State.float rng 1.0 < 0.7) outs
        else if Graph.out_degree g v = 0 then Filters.passthrough outs
        else fun ~seq:_ ~got:_ ->
          if Random.State.float rng 1.0 < hit_rate.(v - 1) then outs else [])
  in
  let frames = 20_000 in
  let run name avoidance =
    let s =
      Engine.run ~graph:g ~kernels:(kernels ()) ~inputs:frames ~avoidance ()
    in
    row "  %-16s %-11s data=%-7d dummies=%-7d overhead=%5.1f%%@." name
      (match s.Report.outcome with
      | Report.Completed -> "completed"
      | Report.Deadlocked -> "DEADLOCKED"
      | Report.Budget_exhausted -> "budget")
      s.data_messages s.dummy_messages
      (100. *. float s.dummy_messages /. float (max 1 s.data_messages))
  in
  row "  %d frames, router keeps 70%% per branch, hit rates 0.9/0.5/0.2/0.05@."
    frames;
  run "no avoidance" Engine.No_avoidance;
  (match Compiler.compile Compiler.Propagation g with
  | Ok p ->
    run "propagation"
      (Engine.Propagation (Compiler.propagation_thresholds g p.intervals))
  | Error e -> row "  propagation plan failed: %a@." Compiler.pp_error e);
  match Compiler.compile Compiler.Non_propagation g with
  | Ok p ->
    run "non-propagation"
      (Engine.Non_propagation (Compiler.send_thresholds g p.intervals))
  | Error e -> row "  non-propagation plan failed: %a@." Compiler.pp_error e

(* ------------------------------------------------------------------ *)
(* F2. Fig. 2: the canonical deadlock and its avoidance.               *)

let f2 () =
  section "F2" "Fig. 2 deadlock condition (full, full, empty)";
  let g = Topo_gen.fig2_triangle ~cap:2 in
  let kernels =
    Filters.for_graph g (fun v outs ->
        if v = 0 then Filters.block_edge 2 outs else Filters.passthrough outs)
  in
  let run name avoidance =
    let s = Engine.run ~graph:g ~kernels ~inputs:100 ~avoidance () in
    row "  %-16s %s (data=%d dummies=%d delivered=%d)@." name
      (match s.Report.outcome with
      | Report.Completed -> "completed"
      | Report.Deadlocked -> "DEADLOCKED"
      | Report.Budget_exhausted -> "budget")
      s.data_messages s.dummy_messages s.sink_data
  in
  run "no avoidance" Engine.No_avoidance;
  (match Compiler.compile Compiler.Propagation g with
  | Ok p ->
    run "propagation"
      (Engine.Propagation (Compiler.propagation_thresholds g p.intervals))
  | Error e -> row "  %a@." Compiler.pp_error e);
  match Compiler.compile Compiler.Non_propagation g with
  | Ok p ->
    run "non-propagation"
      (Engine.Non_propagation (Compiler.send_thresholds g p.intervals))
  | Error e -> row "  %a@." Compiler.pp_error e

(* ------------------------------------------------------------------ *)
(* F3. Fig. 3: the worked dummy-interval example, exact values.        *)

let f3 () =
  section "F3" "Fig. 3 worked example (paper values vs computed)";
  let g = Topo_gen.fig3_hexagon () in
  let names = [| "ab"; "be"; "ef"; "ac"; "cd"; "df" |] in
  let paper_prop = [| "6"; "inf"; "inf"; "8"; "inf"; "inf" |] in
  let paper_np = [| "2"; "2"; "2"; "8/3"; "8/3"; "8/3" |] in
  let tree =
    match Sp_recognize.recognize g with Ok t -> t | Error _ -> assert false
  in
  let fast_prop = Sp_prop.intervals g tree in
  let fast_np = Sp_nonprop.intervals g tree in
  let base_prop = General.propagation g in
  let base_np = General.non_propagation g in
  row "  %-5s %-4s | %-6s %-6s %-6s %-9s | %-6s %-6s %-6s %-9s@." "edge" "cap"
    "paper" "fast" "base" "(prop)" "paper" "fast" "base" "(non-prop)";
  Array.iteri
    (fun i name ->
      let e = Graph.edge g i in
      row "  %-5s %-4d | %-6s %-6s %-6s %-9s | %-6s %-6s %-6s %-9s@." name
        e.cap paper_prop.(i)
        (Format.asprintf "%a" Interval.pp fast_prop.(i))
        (Format.asprintf "%a" Interval.pp base_prop.(i))
        (ok (Interval.equal fast_prop.(i) base_prop.(i)))
        paper_np.(i)
        (Format.asprintf "%a" Interval.pp fast_np.(i))
        (Format.asprintf "%a" Interval.pp base_np.(i))
        (ok (Interval.equal fast_np.(i) base_np.(i))))
    names;
  row "  8/3 displayed as 3 after the paper's round-up: ceil(8/3) = %d@."
    (Option.get (Interval.ceil_opt (Interval.ratio 8 3)))

(* ------------------------------------------------------------------ *)
(* F4. Fig. 4: the two simple non-SP DAGs.                              *)

let f4 () =
  section "F4" "Fig. 4 non-SP DAGs: classification";
  let describe name g =
    let sp = Sp_recognize.is_sp g in
    let cs4 = Cs4.is_cs4 g in
    let brute = Cs4.is_cs4_brute g in
    row "  %-12s SP=%-5b CS4=%-5b (brute: %b, agreement %s)@." name sp cs4
      brute (ok (cs4 = brute));
    match Cs4.classify g with
    | Error (Cs4.Bad_block { block_ids; _ }) ->
      List.iter
        (fun c ->
          row "    witness cycle: sources {%s}, sinks {%s}@."
            (String.concat "," (List.map string_of_int (Cycles.cycle_sources c)))
            (String.concat "," (List.map string_of_int (Cycles.cycle_sinks c))))
        (fst (Cs4.block_witnesses g ~block_ids ~limit:1))
    | _ -> ()
  in
  describe "left" (Topo_gen.fig4_left ~cap:2);
  describe "butterfly" (Topo_gen.fig4_butterfly ~cap:2)

(* ------------------------------------------------------------------ *)
(* F5. Fig. 5: SP-ladder decomposition of the 13-node example.          *)

let f5 () =
  section "F5" "Fig. 5 SP-ladder decomposition";
  let g = Topo_gen.fig5_ladder ~cap:2 in
  match Cs4.classify g with
  | Ok { blocks = [ (_, _, Cs4.Ladder_block lad) ]; _ } ->
    row "  %s@."
      (String.concat "\n  "
         (String.split_on_char '\n' (Format.asprintf "%a" Ladder.pp lad)));
    List.iter
      (fun (label, (t : Sp_tree.t)) ->
        row "  constituent %-3s %2d..%-2d: %d edge(s), L=%d h=%d@." label
          t.source t.sink t.n_edges t.l t.h)
      (Ladder.constituents lad);
    let fast = Ladder_prop.intervals g lad in
    let base = General.propagation g in
    let agree =
      Array.for_all Fun.id
        (Array.mapi (fun i v -> Interval.equal v base.(i)) fast)
    in
    row "  propagation intervals vs baseline: %s@." (ok agree);
    let fastn = Ladder_nonprop.intervals g lad in
    let basen = General.non_propagation g in
    let agreen =
      Array.for_all Fun.id
        (Array.mapi (fun i v -> Interval.equal v basen.(i)) fastn)
    in
    row "  non-propagation intervals vs baseline: %s@." (ok agreen)
  | Ok _ -> row "  UNEXPECTED: not a single ladder block@."
  | Error e -> row "  classification failed: %a@." Cs4.pp_failure e

(* ------------------------------------------------------------------ *)
(* F6. Fig. 6: general ladder structure on random instances.            *)

let f6 () =
  section "F6" "Fig. 6 general ladders: random decomposition round-trip";
  let rng = Random.State.make [| 99 |] in
  let trials = 300 in
  let recognized = ref 0 and shared = ref 0 and rung_total = ref 0 in
  for _ = 1 to trials do
    let g =
      Topo_gen.random_ladder rng
        ~rungs:(1 + Random.State.int rng 6)
        ~segment_edges:(1 + Random.State.int rng 4)
        ~max_cap:6
    in
    match Cs4.classify g with
    | Ok { blocks; _ } ->
      List.iter
        (fun (_, _, b) ->
          match b with
          | Cs4.Ladder_block lad ->
            incr recognized;
            rung_total := !rung_total + Ladder.num_rungs lad;
            let k = Ladder.num_rungs lad in
            let distinct ends =
              List.length
                (List.sort_uniq compare
                   (Array.to_list (Array.map ends lad.Ladder.rungs)))
            in
            if
              distinct (fun r -> r.Ladder.left_end) < k
              || distinct (fun r -> r.Ladder.right_end) < k
            then incr shared
          | Cs4.Sp_block _ -> ())
        blocks
    | Error _ -> ()
  done;
  row "  %d random ladders: %d ladder blocks recognized, %d rungs total@."
    trials !recognized !rung_total;
  row "  %d blocks exercise the shared-endpoint case of Fig. 6@." !shared

(* ------------------------------------------------------------------ *)
(* C1/C2. SP-DAG interval computation scaling.                          *)

let c1 () =
  section "C1" "SETIVALS on SP-DAGs: O(|G|) scaling";
  row "  %8s %12s %12s %14s@." "edges" "recognize" "prop" "prop ns/edge";
  List.iter
    (fun target ->
      let rng = Random.State.make [| target |] in
      let g = Topo_gen.random_sp rng ~target_edges:target ~max_cap:8 in
      let m = Graph.num_edges g in
      let t_rec = time_best (fun () -> Sp_recognize.recognize g) in
      let tree =
        match Sp_recognize.recognize g with Ok t -> t | Error _ -> assert false
      in
      let t_prop = time_best (fun () -> Sp_prop.intervals g tree) in
      row "  %8d %a %a %14.1f@." m pp_ns t_rec pp_ns t_prop
        (t_prop /. float m))
    [ 1_000; 2_000; 4_000; 8_000; 16_000; 32_000 ]

let c2 () =
  section "C2" "SP non-propagation: O(|G|^2) scaling";
  row "  random SP graphs (average case):@.";
  row "  %8s %12s %16s@." "edges" "nonprop" "ns/edge^2";
  List.iter
    (fun target ->
      let rng = Random.State.make [| target; 2 |] in
      let g = Topo_gen.random_sp rng ~target_edges:target ~max_cap:8 in
      let m = Graph.num_edges g in
      let tree =
        match Sp_recognize.recognize g with Ok t -> t | Error _ -> assert false
      in
      let t = time_best (fun () -> Sp_nonprop.intervals g tree) in
      row "  %8d %a %16.4f@." m pp_ns t (t /. (float m *. float m)))
    [ 250; 500; 1_000; 2_000; 4_000 ];
  row "  maximally nested parallels (worst case, ns/edge^2 flat => quadratic):@.";
  row "  %8s %12s %16s@." "edges" "nonprop" "ns/edge^2";
  List.iter
    (fun depth ->
      let g = Topo_gen.nested_parallel ~depth ~cap:3 in
      let m = Graph.num_edges g in
      let tree =
        match Sp_recognize.recognize g with Ok t -> t | Error _ -> assert false
      in
      let t = time_best (fun () -> Sp_nonprop.intervals g tree) in
      row "  %8d %a %16.4f@." m pp_ns t (t /. (float m *. float m)))
    [ 128; 256; 512; 1_024; 2_048 ]

(* ------------------------------------------------------------------ *)
(* C3. Ladder algorithms scaling.                                       *)

let c3 () =
  section "C3" "SP-ladder algorithms: O(|G|) prop / O(|G|^3) non-prop";
  let with_ladder rungs f =
    let g = Topo_gen.wide_ladder ~rungs ~cap:3 in
    match Cs4.classify g with
    | Ok { blocks = [ (_, _, Cs4.Ladder_block lad) ]; _ } -> f g lad
    | _ -> row "  %8d classification failed@." rungs
  in
  row "  %8s %12s %14s@." "rungs" "prop" "prop ns/rung";
  List.iter
    (fun rungs ->
      with_ladder rungs (fun g lad ->
          let t = time_best (fun () -> Ladder_prop.intervals g lad) in
          row "  %8d %a %14.1f@." rungs pp_ns t (t /. float rungs)))
    [ 256; 512; 1_024; 2_048; 4_096 ];
  row "  %8s %12s %16s@." "rungs" "nonprop" "ns/rung^3";
  List.iter
    (fun rungs ->
      with_ladder rungs (fun g lad ->
          let t =
            time_best ~repeat:2 (fun () -> Ladder_nonprop.intervals g lad)
          in
          row "  %8d %a %16.4f@." rungs pp_ns t
            (t /. float (rungs * rungs * rungs))))
    [ 16; 32; 64; 128; 192 ]

(* ------------------------------------------------------------------ *)
(* FE1. Front-end scaling: the passes every cold admission runs before
   the §IV/§VI interval algorithms — parsing the graph file, CS4
   classification (SP reduction per biconnected block), compilation,
   cycle search, lint and repair — on graphs of 1024 to 8192 stages.
   All three families are CS4, so each pass should be linear: a
   doubling ratio near 2. Ladder Non-Propagation compile is cubic by
   design (§VI, C3), so the wide ladder times only parsing,
   classification and repair. Each pass's minor words per edge at the
   largest size are exact [Gc.minor_words] counts of one evaluation,
   the same on every run. *)

let fe1 () =
  section "FE1"
    "front end: parse / classify / compile / cycles / lint / repair scaling";
  let sizes = if !quick then [ 1_024; 2_048 ] else [ 1_024; 2_048; 4_096; 8_192 ] in
  let classify (g, _) =
    match Cs4.classify g with
    | Ok _ -> ()
    | Error e -> failwith (Format.asprintf "FE1: %a" Cs4.pp_failure e)
  in
  let all_passes =
    [
      ( "parse",
        fun (_, text) ->
          match Graph_io.of_string text with
          | Ok _ -> ()
          | Error e -> failwith ("FE1: " ^ e) );
      ("classify", classify);
      ( "compile",
        fun (g, _) ->
          match Compiler.compile Compiler.Non_propagation g with
          | Ok _ -> ()
          | Error e -> failwith (Compiler.error_to_string e) );
      ("cycles", fun (g, _) -> ignore (Cycles.count g));
      ("lint", fun (g, _) -> ignore (Lint.run g));
      ( "repair",
        fun (g, _) ->
          match Repair.repair g with
          | Ok r when r.Repair.reroutes = [] -> ()
          | _ -> failwith "FE1: repair of a CS4 graph is not the identity" );
    ]
  in
  let family name make passes =
    let passes =
      List.filter (fun (p, _) -> List.mem p passes) all_passes
    in
    row "  %s:@." name;
    row "  %8s %7s %7s" "stages" "nodes" "edges";
    List.iter (fun (p, _) -> row " %11s" p) passes;
    row "@.";
    let words = ref [] in
    let times =
      List.map
        (fun stages ->
          let g = make stages in
          let input = (g, Graph_io.to_string g) in
          let ts =
            List.map
              (fun (_, f) ->
                Gc.compact ();
                time_best (fun () -> f input))
              passes
          in
          words :=
            List.map
              (fun (_, f) ->
                let st, () = with_gc_stats (fun () -> f input) in
                st.minor_words /. float (Graph.num_edges g))
              passes;
          row "  %8d %7d %7d" stages (Graph.num_nodes g) (Graph.num_edges g);
          List.iter (fun t -> row " %a" pp_ns t) ts;
          row "@.";
          ts)
        sizes
    in
    let rec ratios = function
      | a :: (b :: _ as rest) -> List.map2 ( /. ) b a :: ratios rest
      | _ -> []
    in
    let doublings = ratios times in
    List.iteri
      (fun i rs ->
        row "  %24s"
          (Printf.sprintf "%d/%d" (List.nth sizes (i + 1)) (List.nth sizes i));
        List.iter (fun r -> row " %11.2f" r) rs;
        row "@.")
      doublings;
    let k = float (List.length doublings) in
    row "  %24s" "mean doubling";
    List.iteri
      (fun j (p, _) ->
        let first = List.nth (List.hd times) j in
        let last = List.nth (List.nth times (List.length times - 1)) j in
        let mean = (last /. first) ** (1. /. k) in
        headline "FE1" (Printf.sprintf "%s_%s_doubling" name p) mean;
        row " %11.2f" mean)
      passes;
    row "@.";
    row "  %24s"
      (Printf.sprintf "words/edge at %d" (List.nth sizes (List.length sizes - 1)));
    List.iter2
      (fun (p, _) w ->
        headline "FE1" (Printf.sprintf "%s_%s_minor_words_per_edge" name p) w;
        row " %11.1f" w)
      passes !words;
    row "@."
  in
  let every = List.map fst all_passes in
  family "pipeline" (fun stages -> Topo_gen.pipeline ~stages ~cap:2) every;
  family "random_cs4"
    (fun stages ->
      Topo_gen.random_cs4
        (Random.State.make [| stages; 16 |])
        ~blocks:(stages / 4) ~block_edges:6 ~max_cap:4)
    every;
  family "wide_ladder"
    (fun stages -> Topo_gen.wide_ladder ~rungs:(stages / 2) ~cap:3)
    [ "parse"; "classify"; "repair" ]

(* ------------------------------------------------------------------ *)
(* C4. The headline: exponential baseline vs polynomial algorithms.     *)

let c4 () =
  section "C4"
    "exponential general-DAG baseline vs SETIVALS (bypassed diamond chains)";
  row "  %4s %10s %14s %14s %10s@." "k" "cycles" "baseline" "SETIVALS"
    "speedup";
  let stop = ref false in
  List.iter
    (fun k ->
      if not !stop then begin
        let g = Topo_gen.diamond_chain ~bypass:true ~diamonds:k ~cap:2 () in
        let tree =
          match Sp_recognize.recognize g with
          | Ok t -> t
          | Error _ -> assert false
        in
        let t_fast = time_best (fun () -> Sp_prop.intervals g tree) in
        let t_base, _ = time_once (fun () -> General.propagation g) in
        let cycles = (1 lsl k) + k in
        row "  %4d %10d %a %a %9.0fx@." k cycles pp_ns t_base pp_ns t_fast
          (t_base /. t_fast);
        if t_base > 1e9 then begin
          stop := true;
          row
            "  (baseline exceeded 1 s; larger sizes skipped — SETIVALS stays@.";
          row "   at microseconds regardless, see C1)@."
        end
      end)
    [ 4; 8; 12; 14; 16; 18; 20; 22 ]

(* ------------------------------------------------------------------ *)
(* C5. End-to-end "compilation overhead": classify + intervals.         *)

let c5 () =
  section "C5"
    "end-to-end compile pass (classify + intervals) on large CS4 graphs";
  row "  %8s %8s %12s %12s %12s %14s@." "edges" "blocks" "classify" "prop"
    "nonprop" "us/edge total";
  List.iter
    (fun blocks ->
      let rng = Random.State.make [| blocks; 77 |] in
      let g = Topo_gen.random_cs4 rng ~blocks ~block_edges:120 ~max_cap:8 in
      let m = Graph.num_edges g in
      let t_classify = time_best (fun () -> Cs4.classify g) in
      let t_prop =
        time_best (fun () -> Compiler.compile ~options:{ Compiler.Options.default with allow_general = false } Compiler.Propagation g)
      in
      let t_np =
        time_best (fun () ->
            Compiler.compile ~options:{ Compiler.Options.default with allow_general = false } Compiler.Non_propagation g)
      in
      row "  %8d %8d %a %a %a %14.2f@." m blocks pp_ns t_classify pp_ns t_prop
        pp_ns t_np
        ((t_classify +. t_np) /. 1e3 /. float m))
    [ 4; 16; 64; 128 ];
  row "  (the whole pass stays in microseconds per channel — the paper's@.";
  row "   'reasonable compilation overhead', measured end to end)@."

(* ------------------------------------------------------------------ *)
(* C6. The sequential engine's worklist scheduler.                      *)

(* The sparse-filtering pipeline of C6 and C7: stage 1 keeps 1 message
   in 512 and every other stage passes through. A topo-ordered round
   carries any surviving message the whole way to the sink, so a
   passthrough pipeline is never idle; sparse filtering is what leaves
   the deep tail quiescent, the regime where visiting only woken nodes
   pays. *)
let sparse_pipeline stages =
  let g = Topo_gen.pipeline ~stages ~cap:2 in
  let kernels () =
    Filters.for_graph g (fun v outs ->
        if v = 1 then Filters.periodic ~keep_every:512 outs
        else Filters.passthrough outs)
  in
  (g, kernels)

(* The S1 random-CS4 instance stream of C6 and C7: 1-3 blocks of 2-9
   edges, fully active Bernoulli (keep 0.6) kernels, Non-Propagation
   thresholds; draws that fail to compile are skipped. *)
let s1_cs4_instances trials =
  let rng = Random.State.make [| 31337 |] in
  let acc = ref [] in
  for _ = 1 to trials do
    let g =
      Topo_gen.random_cs4 rng
        ~blocks:(1 + Random.State.int rng 3)
        ~block_edges:(2 + Random.State.int rng 8)
        ~max_cap:3
    in
    let seed = Random.State.int rng 1_000_000 in
    let kernels () =
      let krng = Random.State.make [| seed |] in
      Filters.for_graph g (fun _ outs -> Filters.bernoulli krng ~keep:0.6 outs)
    in
    match Compiler.compile Compiler.Non_propagation g with
    | Error _ -> ()
    | Ok p ->
      let avoidance =
        Engine.Non_propagation (Compiler.send_thresholds g p.intervals)
      in
      acc := (g, kernels, avoidance) :: !acc
  done;
  List.rev !acc

let c6 () =
  section "C6" "sequential worklist scheduler (runtime)";
  let incomplete = ref 0 in
  let completed (s : Report.t) =
    if s.Report.outcome <> Report.Completed then incr incomplete;
    s
  in
  let messages (s : Report.t) =
    max 1 (s.Report.data_messages + s.Report.dummy_messages)
  in
  row "  deep pipelines, 2000 inputs, stage 1 keeps 1 message in 512:@.";
  row "  %8s %12s %10s %12s %12s@." "nodes" "total" "rounds" "rounds/s"
    "ns/message";
  List.iter
    (fun stages ->
      let g, kernels = sparse_pipeline stages in
      let run () =
        Engine.run ~graph:g ~kernels:(kernels ()) ~inputs:2_000
          ~avoidance:Engine.No_avoidance ()
      in
      let s = completed (run ()) in
      let t = time_best run in
      let rounds = Option.value (Report.rounds s) ~default:0 in
      let rps = float rounds /. (t /. 1e9) in
      let nspm = t /. float (messages s) in
      row "  %8d %a %10d %12.0f %12.1f@." (stages + 1) pp_ns t rounds rps nspm;
      headline "C6"
        (Printf.sprintf "pipeline_%d_rounds_per_sec" (stages + 1))
        rps;
      headline "C6"
        (Printf.sprintf "pipeline_%d_ns_per_message" (stages + 1))
        nspm)
    (if !quick then [ 1_023 ] else [ 1_023; 4_095; 16_383; 65_535 ]);
  (* best-of-3 per instance: single runs here are ~100us, where one GC
     pause or timer tick swings the trial by 10%+ *)
  let trials = if !quick then 40 else 200 in
  let elapsed = ref 0. and msgs = ref 0 and rounds = ref 0 in
  List.iter
    (fun (g, kernels, avoidance) ->
      let run () =
        Engine.run ~graph:g ~kernels:(kernels ()) ~inputs:80 ~avoidance ()
      in
      let s = completed (run ()) in
      elapsed := !elapsed +. time_best run;
      msgs := !msgs + messages s;
      rounds := !rounds + Option.value (Report.rounds s) ~default:0)
    (s1_cs4_instances trials);
  row "  S1 random CS4 workloads, 80 inputs (fully active graphs):@.";
  row "  %8s %12s %10s %12s %12s@." "trials" "total" "rounds" "rounds/s"
    "ns/message";
  row "  %8d %a %10d %12.0f %12.1f@." trials pp_ns !elapsed !rounds
    (float !rounds /. (!elapsed /. 1e9))
    (!elapsed /. float (max 1 !msgs));
  headline "C6" "cs4_ns_per_message" (!elapsed /. float (max 1 !msgs));
  row "  every run completed: %s@." (ok (!incomplete = 0));
  require "C6"
    (Printf.sprintf "%d runs did not complete" !incomplete)
    (!incomplete = 0)

(* ------------------------------------------------------------------ *)
(* C7. Hot-path cost of the steady-state loop: throughput + GC load.    *)

let c7 () =
  section "C7" "hot-path cost: rounds/sec, ns/message, minor words/message";
  let pipeline_sizes =
    if !quick then [ 1_023 ] else [ 1_023; 4_095; 16_383; 65_535 ]
  in
  row "  deep pipelines, 2000 inputs, stage 1 keeps 1 message in 512:@.";
  row "  %8s %12s %12s %12s %12s %10s@." "nodes" "total" "rounds/s" "ns/msg"
    "mwords/msg" "minor GCs";
  List.iter
    (fun stages ->
      let g, kernels = sparse_pipeline stages in
      let run () =
        Engine.run ~graph:g ~kernels:(kernels ()) ~inputs:2_000
          ~avoidance:Engine.No_avoidance ()
      in
      (* one warm-up run keeps the graph/closure setup cost out of the
         GC window; the measured run is wrapped whole, so the reported
         minor words include per-run setup (arrays, channels) — a fixed
         cost that the per-message division dilutes at steady state *)
      ignore (run ());
      Gc.compact ();
      let gc, (t, (s : Report.t)) = with_gc_stats (fun () -> time_once run) in
      let rounds = Option.value (Report.rounds s) ~default:0 in
      let messages = max 1 (s.Report.data_messages + s.Report.dummy_messages) in
      row "  %8d %a %12.0f %12.1f %12.1f %10d@." (stages + 1) pp_ns t
        (float rounds /. (t /. 1e9))
        (t /. float messages)
        (gc.minor_words /. float messages)
        gc.minor_collections;
      headline "C7"
        (Printf.sprintf "pipeline_%d_rounds_per_sec" (stages + 1))
        (float rounds /. (t /. 1e9));
      headline "C7"
        (Printf.sprintf "pipeline_%d_ns_per_message" (stages + 1))
        (t /. float messages);
      headline "C7"
        (Printf.sprintf "pipeline_%d_minor_words_per_message" (stages + 1))
        (gc.minor_words /. float messages))
    pipeline_sizes;
  row "  S1 random CS4 workloads (Bernoulli filtering, non-prop wrapper):@.";
  let trials = if !quick then 40 else 200 in
  let elapsed = ref 0. and msgs = ref 0 and rounds = ref 0 in
  let minor = ref 0. and collections = ref 0 in
  List.iter
    (fun (g, kernels, avoidance) ->
      let kernels = kernels () in
      let gc, (t, (s : Report.t)) =
        with_gc_stats (fun () ->
            time_once (fun () ->
                Engine.run ~graph:g ~kernels ~inputs:80 ~avoidance ()))
      in
      elapsed := !elapsed +. t;
      msgs := !msgs + s.data_messages + s.dummy_messages;
      rounds := !rounds + Option.value (Report.rounds s) ~default:0;
      minor := !minor +. gc.minor_words;
      collections := !collections + gc.minor_collections)
    (s1_cs4_instances trials);
  row "  %8s %12s %12s %12s %12s %10s@." "trials" "total" "rounds/s" "ns/msg"
    "mwords/msg" "minor GCs";
  row "  %8d %a %12.0f %12.1f %12.1f %10d@." trials pp_ns !elapsed
    (float !rounds /. (!elapsed /. 1e9))
    (!elapsed /. float (max 1 !msgs))
    (!minor /. float (max 1 !msgs))
    !collections;
  row "  (minor words per message = Gc.minor_words delta over the whole run@.";
  row "   divided by delivered messages; table tracked in EXPERIMENTS.md C7)@.";
  headline "C7" "cs4_ns_per_message" (!elapsed /. float (max 1 !msgs));
  headline "C7" "cs4_minor_words_per_message" (!minor /. float (max 1 !msgs))

(* ------------------------------------------------------------------ *)
(* O1. Observability overhead: bare run vs null sink vs ring sink.      *)

let o1 () =
  section "O1" "event-stream tracing overhead (C6 pipeline workload)";
  let module Obs = Fstream_obs in
  row "  deep pipelines, 2000 inputs, stage 1 keeps 1 message in 512:@.";
  row "  %8s %12s %12s %12s %9s %9s@." "nodes" "no sink" "null sink"
    "ring sink" "null ovh" "ring ovh";
  List.iter
    (fun stages ->
      let g = Topo_gen.pipeline ~stages ~cap:2 in
      let kernels () =
        Filters.for_graph g (fun v outs ->
            if v = 1 then Filters.periodic ~keep_every:512 outs
            else Filters.passthrough outs)
      in
      let inputs = 2_000 in
      (* one shared closure for every configuration: the engine
         normalizes [Sink.null] away, so no-sink and null-sink must
         run the same code — and sharing the call site keeps
         code-layout effects (measured at several percent on this
         workload) out of the comparison. Samples are interleaved and
         the heap compacted before each so GC drift hits every
         configuration equally; per-configuration best is reported. *)
      let run_with ?sink () =
        Engine.run ?sink ~graph:g ~kernels:(kernels ()) ~inputs
          ~avoidance:Engine.No_avoidance ()
      in
      let t_none = ref infinity
      and t_null = ref infinity
      and t_ring = ref infinity in
      let ring = Obs.Ring.create () in
      let sample cell f =
        Gc.compact ();
        let t, _ = time_once f in
        cell := Float.min !cell t
      in
      for _ = 1 to 9 do
        sample t_none (fun () -> run_with ());
        sample t_null (fun () -> run_with ~sink:Obs.Sink.null ());
        Obs.Ring.clear ring;
        sample t_ring (fun () -> run_with ~sink:(Obs.Ring.sink ring) ())
      done;
      row "  %8d %a %a %a %8.1f%% %8.1f%%@." (stages + 1) pp_ns !t_none pp_ns
        !t_null pp_ns !t_ring
        (100. *. ((!t_null /. !t_none) -. 1.))
        (100. *. ((!t_ring /. !t_none) -. 1.)))
    [ 1_023; 4_095; 16_383; 65_535 ];
  row "  (null-sink instrumentation is one branch per potential event; the@.";
  row "   acceptance bar is < 5%% — measured numbers in EXPERIMENTS.md, O1)@."

(* ------------------------------------------------------------------ *)
(* V1. Cross-validation: fast algorithms == exponential baseline.       *)

let v1 () =
  section "V1" "cross-validation of every fast algorithm vs the baseline";
  let families =
    [
      ( "random SP",
        fun rng ->
          Topo_gen.random_sp rng
            ~target_edges:(2 + Random.State.int rng 14)
            ~max_cap:7 );
      ( "random ladder",
        fun rng ->
          Topo_gen.random_ladder rng
            ~rungs:(1 + Random.State.int rng 6)
            ~segment_edges:(1 + Random.State.int rng 4)
            ~max_cap:7 );
      ( "random CS4",
        fun rng ->
          Topo_gen.random_cs4 rng
            ~blocks:(1 + Random.State.int rng 4)
            ~block_edges:(2 + Random.State.int rng 10)
            ~max_cap:7 );
    ]
  in
  let algorithms =
    [
      ("propagation", Compiler.Propagation, fun g -> General.propagation g);
      ( "non-propagation",
        Compiler.Non_propagation,
        fun g -> General.non_propagation g );
      ("relay", Compiler.Relay_propagation, fun g -> General.relay_propagation g);
    ]
  in
  List.iter
    (fun (fname, make) ->
      let rng = Random.State.make [| 1234 |] in
      let graphs = List.init 200 (fun _ -> make rng) in
      List.iter
        (fun (aname, algo, baseline) ->
          let mismatches = ref 0 and edges = ref 0 in
          List.iter
            (fun g ->
              match Compiler.compile ~options:{ Compiler.Options.default with allow_general = false } algo g with
              | Error _ -> incr mismatches
              | Ok p ->
                let base = baseline g in
                edges := !edges + Array.length base;
                Array.iteri
                  (fun i v ->
                    if not (Interval.equal v base.(i)) then incr mismatches)
                  p.intervals)
            graphs;
          row "  %-14s x %-16s: %6d edges checked, %d mismatches %s@." fname
            aname !edges !mismatches
            (ok (!mismatches = 0)))
        algorithms)
    families

(* ------------------------------------------------------------------ *)
(* S1. Simulation: deadlock rates and dummy overhead.                   *)

let s1 () =
  section "S1" "deadlock avoidance in simulation (random CS4 workloads)";
  let trials = 200 and inputs = 80 in
  let mk_graph rng =
    Topo_gen.random_cs4 rng
      ~blocks:(1 + Random.State.int rng 3)
      ~block_edges:(2 + Random.State.int rng 8)
      ~max_cap:3
  in
  let adversarial g seed =
    let rng = Random.State.make [| seed |] in
    Filters.for_graph g (fun _ outs -> Filters.bernoulli rng ~keep:0.6 outs)
  in
  let paper_pattern g seed =
    let rng = Random.State.make [| seed |] in
    Filters.for_graph g (fun v outs ->
        if Graph.in_degree g v = 0 || Graph.out_degree g v = 1 then
          Filters.bernoulli rng ~keep:0.6 outs
        else Filters.passthrough outs)
  in
  let experiment label mk_kernels configs =
    row "  -- %s --@." label;
    row "  %-34s %9s %10s %10s %9s@." "wrapper" "deadlock" "data" "dummies"
      "overhead";
    List.iter
      (fun (name, wrapper_of) ->
        let rng = Random.State.make [| 31337 |] in
        let deadlocks = ref 0 and data = ref 0 and dummies = ref 0 in
        for _ = 1 to trials do
          let g = mk_graph rng in
          let seed = Random.State.int rng 1_000_000 in
          match wrapper_of g with
          | None -> ()
          | Some avoidance ->
            let s =
              Engine.run ~graph:g ~kernels:(mk_kernels g seed) ~inputs
                ~avoidance ()
            in
            data := !data + s.Report.data_messages;
            dummies := !dummies + s.Report.dummy_messages;
            if s.Report.outcome = Report.Deadlocked then incr deadlocks
        done;
        row "  %-34s %6d/%-3d %10d %10d %8.1f%%@." name !deadlocks trials
          !data !dummies
          (100. *. float !dummies /. float (max 1 !data)))
      configs
  in
  let none _g = Some Engine.No_avoidance in
  let prop g =
    match Compiler.compile Compiler.Propagation g with
    | Ok p ->
      Some (Engine.Propagation (Compiler.propagation_thresholds g p.intervals))
    | Error _ -> None
  in
  let nonprop g =
    match Compiler.compile Compiler.Non_propagation g with
    | Ok p ->
      Some (Engine.Non_propagation (Compiler.send_thresholds g p.intervals))
    | Error _ -> None
  in
  let hybrid g =
    match Compiler.compile Compiler.Non_propagation g with
    | Ok p -> Some (Engine.Propagation (Compiler.send_thresholds g p.intervals))
    | Error _ -> None
  in
  experiment
    "paper workload: filtering at cycle sources and relays (Fig. 1 pattern)"
    paper_pattern
    [
      ("no avoidance", none);
      ("propagation (paper intervals)", prop);
      ("non-propagation (paper intervals)", nonprop);
    ];
  experiment "adversarial workload: every node filters every channel"
    adversarial
    [
      ("no avoidance", none);
      ("propagation (paper intervals)", prop);
      ("non-propagation (paper intervals)", nonprop);
      ("propagation wrapper, L/h budgets", hybrid);
    ];
  row "  (the paper-interval propagation table is only sound for the paper's@.";
  row "   filtering pattern — see DESIGN.md 'Deviations' and EXPERIMENTS.md)@."

(* ------------------------------------------------------------------ *)
(* V2. Exhaustive model checking of the wrappers on small instances.    *)

let v2 () =
  section "V2"
    "exhaustive model checking (all schedules x all filtering choices)";
  let nonprop g =
    match Compiler.compile Compiler.Non_propagation g with
    | Ok p -> Engine.Non_propagation (Compiler.send_thresholds g p.intervals)
    | Error e -> failwith (Compiler.error_to_string e)
  in
  let prop g =
    match Compiler.compile Compiler.Propagation g with
    | Ok p -> Engine.Propagation (Compiler.propagation_thresholds g p.intervals)
    | Error e -> failwith (Compiler.error_to_string e)
  in
  let report name r =
    row "  %-44s %s@." name
      (match r with
      | Verify.Safe { states } ->
        Printf.sprintf "SAFE (proof over %d states)" states
      | Verify.Deadlocks { states; trace } ->
        Printf.sprintf "DEADLOCKS (%d states, %d-step trace)" states
          (List.length trace)
      | Verify.Out_of_budget { states } ->
        Printf.sprintf "undecided (%d states)" states)
  in
  let fig2 = Topo_gen.fig2_triangle ~cap:1 in
  report "fig2, no avoidance"
    (Verify.check ~graph:fig2 ~avoidance:Engine.No_avoidance ~inputs:4 ());
  report "fig2, non-propagation"
    (Verify.check ~graph:fig2 ~avoidance:(nonprop fig2) ~inputs:4 ());
  report "fig2, propagation"
    (Verify.check ~graph:fig2 ~avoidance:(prop fig2) ~inputs:4 ());
  let ero = Topo_gen.erosion_counterexample () in
  report "erosion instance, paper propagation table"
    (Verify.check ~strategy:`Dfs ~graph:ero ~avoidance:(prop ero) ~inputs:4 ());
  report "erosion instance, non-propagation table"
    (Verify.check ~graph:ero ~avoidance:(nonprop ero) ~inputs:4 ());
  row "  (SAFE verdicts quantify over every kernel behaviour — they are@.";
  row "   machine-checked instances of the SPAA-2010 soundness theorem)@."

(* ------------------------------------------------------------------ *)
(* S2. The same avoidance story on the real parallel runtime.           *)

let s2 () =
  section "S2" "shared-memory parallel runtime (sharded domain pool)";
  let cases =
    [
      ("fig2 triangle", Topo_gen.fig2_triangle ~cap:2, 200);
      ("fig4-left ladder", Topo_gen.fig4_left ~cap:2, 200);
      ("fig1 split-join", Topo_gen.fig1_split_join ~branches:4 ~cap:2, 200);
    ]
  in
  row "  %-18s %-22s %-22s@." "topology" "no avoidance" "non-propagation";
  List.iter
    (fun (name, g, inputs) ->
      let kernels () =
        Filters.for_graph g (fun v outs ->
            let r = Random.State.make [| 5; v |] in
            if Graph.out_degree g v = 0 then Filters.passthrough outs
            else Filters.bernoulli r ~keep:0.6 outs)
      in
      let show (s : Report.t) =
        Printf.sprintf "%s (%d delivered)"
          (match s.outcome with
          | Report.Completed -> "completed"
          | _ -> "DEADLOCKED")
          s.sink_data
      in
      let bare =
        P.run ~graph:g ~kernels:(kernels ()) ~inputs
          ~avoidance:Engine.No_avoidance ()
      in
      let safe =
        match Compiler.compile Compiler.Non_propagation g with
        | Ok p ->
          P.run ~graph:g ~kernels:(kernels ()) ~inputs
            ~avoidance:
              (Engine.Non_propagation (Compiler.send_thresholds g p.intervals))
            ()
        | Error _ -> bare
      in
      row "  %-18s %-22s %-22s@." name (show bare) (show safe))
    cases;
  row "  (kernels race across real domains: the deadlocks and their@.";
  row "   avoidance above are preemptive-schedule concurrency, not@.";
  row "   simulation — outcomes match the sequential engine)@."

(* ------------------------------------------------------------------ *)
(* P1. Pool runtime scaling: throughput vs worker domains.              *)

let p1 () =
  section "P1" "pool runtime scaling: throughput vs worker domains";
  let sizes = if !quick then [ 1_023 ] else [ 1_023; 4_095; 16_383 ] in
  let domain_counts = if !quick then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let inputs = if !quick then 16 else 48 in
  (* Per-firing synthetic compute (integer mixing, ~1 us): the paper's
     deployment model has kernels doing real work per message. With
     free kernels a run is pure scheduling and no pool amortizes its
     locks against the sequential engine's ~15 ns/message hot path —
     the zero-work row below keeps that overhead honest. *)
  let work = if !quick then 300 else 800 in
  let spin w =
    let x = ref 0x9e3779b9 in
    for _ = 1 to w do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17)
    done;
    ignore (Sys.opaque_identity !x)
  in
  let kernels g w () =
    Filters.for_graph g (fun _ outs ->
        fun ~seq:_ ~got:_ ->
         spin w;
         outs)
  in
  row "  passthrough pipelines, %d inputs, ~%d-iteration kernels;@." inputs
    work;
  row "  host has %d core(s) available — speedups need real cores@."
    (Domain.recommended_domain_count ());
  row "  %-12s %-10s %12s %14s %9s@." "stages" "runtime" "wall" "msgs/sec"
    "vs pool-1";
  (* A one-domain pool is one shard running the sequential engine's
     worklist, so its report must equal the sequential one in every
     count, dummies included: a deterministic check, enforced even
     under [--quick]. *)
  let seq_report = ref None in
  let same_as_sequential (r : Report.t) =
    match !seq_report with
    | Some (s : Report.t) ->
      if { s with Report.detail = r.Report.detail } <> r then
        failwith "P1: pool-1 report differs from the sequential engine's"
    | None -> ()
  in
  List.iter
    (fun stages ->
      let g = Topo_gen.pipeline ~stages ~cap:4 in
      let msgs = float (stages * inputs) in
      let run_seq () =
        let r =
          Engine.run ~graph:g ~kernels:(kernels g work ()) ~inputs
            ~avoidance:Engine.No_avoidance ()
        in
        seq_report := Some r;
        r
      in
      let seq_ns = time_best ~repeat:(if !quick then 1 else 2) run_seq in
      row "  %-12d %-10s %12s %14.0f %9s@." stages "sequential"
        (Format.asprintf "%a" pp_ns seq_ns)
        (msgs /. (seq_ns /. 1e9))
        "-";
      headline "P1"
        (Printf.sprintf "pipeline_%d_sequential_msgs_per_sec" stages)
        (msgs /. (seq_ns /. 1e9));
      let base = ref 0. in
      List.iter
        (fun domains ->
          let run_pool () =
            let r =
              P.run ~domains ~graph:g ~kernels:(kernels g work ()) ~inputs
                ~avoidance:Engine.No_avoidance ()
            in
            assert (r.Report.outcome = Report.Completed);
            if domains = 1 then same_as_sequential r;
            r
          in
          let ns = time_best ~repeat:(if !quick then 1 else 2) run_pool in
          if domains = 1 then base := ns;
          row "  %-12d %-10s %12s %14.0f %8.2fx@." stages
            (Printf.sprintf "pool-%d" domains)
            (Format.asprintf "%a" pp_ns ns)
            (msgs /. (ns /. 1e9))
            (!base /. ns);
          headline "P1"
            (Printf.sprintf "pipeline_%d_pool%d_msgs_per_sec" stages domains)
            (msgs /. (ns /. 1e9)))
        domain_counts)
    sizes;
  (* scheduling overhead alone: zero-work kernels on the smallest size.
     A run lasts a few milliseconds, so best of 15, not 2: fewer left
     the pool rows' spread wider than any change they were to show *)
  let stages = List.hd sizes in
  let g = Topo_gen.pipeline ~stages ~cap:4 in
  let msgs = float (stages * inputs) in
  let seq_ns =
    time_best ~repeat:15 (fun () ->
        let r =
          Engine.run ~graph:g ~kernels:(kernels g 0 ()) ~inputs
            ~avoidance:Engine.No_avoidance ()
        in
        seq_report := Some r;
        r)
  in
  row "  %-12s %-10s %12s %14.0f %9s@."
    (Printf.sprintf "%d (0-work)" stages)
    "sequential"
    (Format.asprintf "%a" pp_ns seq_ns)
    (msgs /. (seq_ns /. 1e9))
    "-";
  headline "P1" "zero_work_sequential_msgs_per_sec" (msgs /. (seq_ns /. 1e9));
  List.iter
    (fun domains ->
      let ns =
        time_best ~repeat:15 (fun () ->
            let r =
              P.run ~domains ~graph:g ~kernels:(kernels g 0 ()) ~inputs
                ~avoidance:Engine.No_avoidance ()
            in
            if domains = 1 then same_as_sequential r;
            r)
      in
      row "  %-12s %-10s %12s %14.0f %9s@."
        (Printf.sprintf "%d (0-work)" stages)
        (Printf.sprintf "pool-%d" domains)
        (Format.asprintf "%a" pp_ns ns)
        (msgs /. (ns /. 1e9))
        "-";
      headline "P1"
        (Printf.sprintf "zero_work_pool%d_msgs_per_sec" domains)
        (msgs /. (ns /. 1e9)))
    [ 1; List.fold_left max 1 domain_counts ];
  row "  pool-1 report = sequential engine's at every size: ok@."

(* ------------------------------------------------------------------ *)
(* FU1. Kernel fusion: grain amplification on deep pipelines.           *)

(* ISSUE PR6 calls this section §F1; it is named FU1 here because F1 is
   already the paper's Fig. 1 experiment. The claim under test: with
   fusion a 64k-stage zero-work pipeline on the pool runtime lands
   within 2x of the sequential engine's throughput (stage-firings/sec),
   where the unfused pool pays per-message scheduling on every hop. On
   a single-core CI box the pool cannot win anything; the ratio is the
   honest overhead figure there (see EXPERIMENTS.md FU1). *)
let fu1 () =
  section "FU1" "kernel fusion: 64k-stage pipeline, pool vs sequential";
  let stages = if !quick then 4_095 else 65_535 in
  let inputs = if !quick then 8 else 16 in
  let g = Topo_gen.pipeline ~stages ~cap:4 in
  let kernels () = Filters.for_graph g (fun _ outs -> Filters.passthrough outs) in
  let fusion = Fusion.fuse g in
  let fg = fusion.Fusion.graph in
  row "  %d stages fused into %d compound kernels (%d channels collapsed);@."
    stages (Graph.num_nodes fg)
    (Fusion.internal_edges fusion);
  row "  zero-work passthrough kernels, %d inputs — pure scheduling cost;@."
    inputs;
  row "  host has %d core(s) available@." (Domain.recommended_domain_count ());
  (* throughput unit: original stage firings per second. The fused runs
     do the same logical work per input (every stage's kernel runs) but
     push only boundary messages, so raw msgs/sec would flatter them. *)
  let firings = float (stages * inputs) in
  (* runs of tens of milliseconds: best of 15 (3 under --quick) *)
  let repeat = if !quick then 3 else 15 in
  let domains = min 4 (max 1 (Domain.recommended_domain_count ())) in
  let check (r : Report.t) = assert (r.Report.sink_data = inputs) in
  let time name key thunk =
    let ns = time_best ~repeat thunk in
    row "  %-22s %12s %16.0f@." name
      (Format.asprintf "%a" pp_ns ns)
      (firings /. (ns /. 1e9));
    headline "FU1" key (firings /. (ns /. 1e9));
    ns
  in
  row "  %-22s %12s %16s@." "configuration" "wall" "stage-firings/s";
  let seq_ns =
    time "sequential" "sequential_firings_per_sec" (fun () ->
        let r =
          Engine.run ~graph:g ~kernels:(kernels ()) ~inputs
            ~avoidance:Engine.No_avoidance ()
        in
        check r;
        r)
  in
  let _ =
    time "sequential --fuse" "sequential_fused_firings_per_sec" (fun () ->
        let fw = Fused.make fusion (kernels ()) in
        let r =
          Engine.run ~graph:fg ~kernels:(Fused.kernels fw) ~inputs
            ~avoidance:Engine.No_avoidance ()
        in
        check r;
        r)
  in
  let _ =
    time
      (Printf.sprintf "pool-%d" domains)
      (Printf.sprintf "pool%d_firings_per_sec" domains)
      (fun () ->
        let r =
          P.run ~domains ~graph:g ~kernels:(kernels ()) ~inputs
            ~avoidance:Engine.No_avoidance ()
        in
        check r;
        r)
  in
  let pool_fused_ns =
    time
      (Printf.sprintf "pool-%d --fuse" domains)
      (Printf.sprintf "pool%d_fused_firings_per_sec" domains)
      (fun () ->
        let fw = Fused.make fusion (kernels ()) in
        let r =
          P.run ~domains ~graph:fg ~kernels:(Fused.kernels fw) ~inputs
            ~avoidance:Engine.No_avoidance ()
        in
        check r;
        r)
  in
  let ratio = seq_ns /. pool_fused_ns in
  headline "FU1" "pool_fused_over_sequential" ratio;
  row "  pool --fuse vs sequential: %.2fx (headline wants >= 0.5x): %s@."
    ratio
    (ok (ratio >= 0.5))

(* ------------------------------------------------------------------ *)
(* SV1. Multi-tenant serving: one shared pool vs N isolated runs.       *)

(* The serving layer's claim: admitting N tenants onto one pool (lint
   at the door, one threshold compile per distinct topology, shards
   interleaved through the pool's run queue) beats giving each
   application its own run — both the sequential engine back-to-back
   and a fresh pool per application (which pays domain spawn/join N
   times). Per-tenant work is small and
   topologies repeat, the regime a daemon actually sees. *)
let sv1 () =
  let module Serve = Fstream_serve.Serve in
  section "SV1" "multi-tenant serving: shared pool vs N isolated runs";
  let tenants = if !quick then 12 else 60 in
  let inputs = if !quick then 24 else 64 in
  let work = if !quick then 150 else 400 in
  let topologies =
    [|
      Topo_gen.pipeline ~stages:48 ~cap:4;
      Topo_gen.fig1_split_join ~branches:3 ~cap:2;
      Topo_gen.random_cs4 (Random.State.make [| 7 |]) ~blocks:3 ~block_edges:8
        ~max_cap:4;
    |]
  in
  let spin w =
    let x = ref 0x9e3779b9 in
    for _ = 1 to w do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17)
    done;
    ignore (Sys.opaque_identity !x)
  in
  let kernels g i () =
    Filters.for_graph g (fun v outs ->
        let rng = Random.State.make [| i; v |] in
        fun ~seq ~got ->
         spin work;
         Filters.bernoulli rng ~keep:0.85 outs ~seq ~got)
  in
  let domains = min 4 (max 1 (Domain.recommended_domain_count ())) in
  row "  %d tenants over %d distinct topologies, %d inputs each,@." tenants
    (Array.length topologies) inputs;
  row "  ~%d-iteration kernels, non-propagation avoidance;@." work;
  row "  host has %d core(s) available — pool width %d@."
    (Domain.recommended_domain_count ())
    domains;
  let repeat = if !quick then 1 else 2 in
  (* direct per-tenant avoidance tables (compiled once, outside the
     timed region for the isolated configurations: the serve run is the
     only one charged for compilation, and it still wins) *)
  let avoidance =
    Array.map
      (fun g ->
        match Compiler.compile Compiler.Non_propagation g with
        | Ok p ->
          Engine.Non_propagation (Compiler.send_thresholds g p.intervals)
        | Error _ -> assert false)
      topologies
  in
  let check (r : Report.t) = assert (r.Report.outcome = Report.Completed) in
  row "  %-26s %12s %14s@." "configuration" "wall" "tenants/sec";
  let time name key thunk =
    let ns = time_best ~repeat thunk in
    row "  %-26s %12s %14.1f@." name
      (Format.asprintf "%a" pp_ns ns)
      (float tenants /. (ns /. 1e9));
    headline "SV1" key (float tenants /. (ns /. 1e9));
    ns
  in
  let serve_ns =
    time "serve (one shared pool)" "serve_tenants_per_sec" (fun () ->
        let t = Serve.create ~domains () in
        Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
        let sessions =
          Array.init tenants (fun i ->
              let g = topologies.(i mod Array.length topologies) in
              match Serve.admit t ~mode:Serve.Non_propagation g with
              | Ok s -> s
              | Error _ -> assert false)
        in
        Array.iteri
          (fun i s ->
            Serve.start t
              ~kernels:(kernels topologies.(i mod Array.length topologies) i ())
              ~inputs s)
          sessions;
        Array.iter (fun s -> check (Serve.await s)) sessions;
        assert
          ((Serve.stats t).Serve.compiles = Array.length topologies))
  in
  let seq_ns =
    time "sequential, back-to-back" "sequential_tenants_per_sec" (fun () ->
        for i = 0 to tenants - 1 do
          let g = topologies.(i mod Array.length topologies) in
          check
            (Engine.run ~graph:g ~kernels:(kernels g i ()) ~inputs
               ~avoidance:avoidance.(i mod Array.length topologies)
               ())
        done)
  in
  let isolated_ns =
    time "pool per tenant" "isolated_pool_tenants_per_sec" (fun () ->
        for i = 0 to tenants - 1 do
          let g = topologies.(i mod Array.length topologies) in
          check
            (P.run ~domains ~graph:g ~kernels:(kernels g i ()) ~inputs
               ~avoidance:avoidance.(i mod Array.length topologies)
               ())
        done)
  in
  headline "SV1" "serve_over_sequential" (seq_ns /. serve_ns);
  headline "SV1" "serve_over_isolated_pools" (isolated_ns /. serve_ns);
  row "  serve vs sequential: %.2fx, vs pool-per-tenant: %.2fx@."
    (seq_ns /. serve_ns)
    (isolated_ns /. serve_ns)

(* ------------------------------------------------------------------ *)
(* A1. Bandwidth ablation: what do computed intervals save over SDF?    *)

let a1 () =
  section "A1"
    "bandwidth ablation: SDF emulation vs computed interval tables";
  let trials = 150 and inputs = 80 in
  row "  %-34s %9s %10s %10s %9s %9s@." "threshold table" "deadlock" "data"
    "dummies" "overhead" "rounds";
  let configs =
    [
      ( "SDF emulation (send every seq)",
        fun g -> Some (Engine.Non_propagation (Compiler.sdf_thresholds g)) );
      ( "relay table (min L, no /h)",
        fun g ->
          match Compiler.compile Compiler.Relay_propagation g with
          | Ok p -> Some (Engine.Non_propagation (Compiler.send_thresholds g p.intervals))
          | Error _ -> None );
      ( "non-propagation table (L/h)",
        fun g ->
          match Compiler.compile Compiler.Non_propagation g with
          | Ok p -> Some (Engine.Non_propagation (Compiler.send_thresholds g p.intervals))
          | Error _ -> None );
    ]
  in
  List.iter
    (fun (name, wrapper_of) ->
      let rng = Random.State.make [| 4242 |] in
      let deadlocks = ref 0 and data = ref 0 and dummies = ref 0 in
      let rounds = ref 0 in
      for _ = 1 to trials do
        let g =
          Topo_gen.random_cs4 rng
            ~blocks:(1 + Random.State.int rng 3)
            ~block_edges:(2 + Random.State.int rng 8)
            ~max_cap:3
        in
        let seed = Random.State.int rng 1_000_000 in
        let krng = Random.State.make [| seed |] in
        let kernels =
          Filters.for_graph g (fun _ outs ->
              Filters.bernoulli krng ~keep:0.6 outs)
        in
        match wrapper_of g with
        | None -> ()
        | Some avoidance ->
          let s = Engine.run ~graph:g ~kernels ~inputs ~avoidance () in
          data := !data + s.Report.data_messages;
          dummies := !dummies + s.Report.dummy_messages;
          rounds := !rounds + Option.value (Report.rounds s) ~default:0;
          if s.Report.outcome = Report.Deadlocked then incr deadlocks
      done;
      row "  %-34s %6d/%-3d %10d %10d %8.1f%% %9d@." name !deadlocks trials
        !data !dummies
        (100. *. float !dummies /. float (max 1 !data))
        (!rounds / trials))
    configs;
  row "  (the relay table is cheapest but NOT run-sum safe — its deadlocks@.";
  row "   above are real; L/h is the cheapest sound table, still well below@.";
  row "   SDF padding: the interval computation pays for itself)@."

(* ------------------------------------------------------------------ *)
(* A2. Repair ablation: butterfly via general route vs repaired ladder. *)

let a2 () =
  section "A2" "topology repair: butterfly vs repaired SP-ladder";
  let g = Topo_gen.fig4_butterfly ~cap:2 in
  let t_gen =
    time_best (fun () -> Compiler.compile Compiler.Non_propagation g)
  in
  let r = Result.get_ok (Repair.repair g) in
  let g' = r.Repair.graph in
  let t_fast =
    time_best (fun () -> Compiler.compile ~options:{ Compiler.Options.default with allow_general = false } Compiler.Non_propagation g')
  in
  row "  original butterfly: general route, %d cycles enumerated, %a@."
    (Cycles.count g) pp_ns t_gen;
  row "  repaired ladder: %d reroute(s), CS4 route, %a@."
    (List.length r.Repair.reroutes) pp_ns t_fast;
  (* scale the same comparison: stacked butterflies become exponentially
     expensive for the general route, repaired chains stay polynomial *)
  row "  %6s %10s %14s %14s@." "stages" "cycles" "general" "repaired";
  List.iter
    (fun stages ->
      let b = Graph.num_nodes g - 1 in
      let edges =
        List.concat_map
          (fun s ->
            let off = s * b in
            List.map
              (fun (e : Graph.edge) -> (e.src + off, e.dst + off, e.cap))
              (Graph.edges g))
          (List.init stages Fun.id)
      in
      let big = Graph.make ~nodes:((stages * b) + 1) edges in
      let t_general =
        time_best ~repeat:1 (fun () -> General.non_propagation big)
      in
      let rep = Result.get_ok (Repair.repair big) in
      let t_rep =
        time_best ~repeat:1 (fun () ->
            Compiler.compile ~options:{ Compiler.Options.default with allow_general = false } Compiler.Non_propagation
              rep.Repair.graph)
      in
      row "  %6d %10d %a %a@." stages (Cycles.count big) pp_ns t_general pp_ns
        t_rep)
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* A3. Tightness: how much threshold slack before the wedge returns?    *)

let a3 () =
  section "A3" "interval tightness on Fig. 2 (caps 2), by model checking";
  let g = Topo_gen.fig2_triangle ~cap:2 in
  let configs =
    [
      ("computed thresholds (1,1,4)", [| Some 1; Some 1; Some 4 |]);
      ("branch budgets doubled (2,2,4)", [| Some 2; Some 2; Some 4 |]);
      ("branch budgets tripled (3,3,4)", [| Some 3; Some 3; Some 4 |]);
      ("shortcut budget doubled (1,1,8)", [| Some 1; Some 1; Some 8 |]);
    ]
  in
  List.iter
    (fun (name, t) ->
      (* the computed table needs the whole space for its SAFE verdict;
         BFS at 6 inputs covers it, DFS at 8 finds the wedges fast *)
      let strategy, inputs =
        if t = [| Some 1; Some 1; Some 4 |] then (`Bfs, 6) else (`Dfs, 8)
      in
      let r =
        Verify.check ~strategy ~graph:g
          ~avoidance:(Engine.Non_propagation (Thresholds.of_array g t))
          ~inputs ()
      in
      row "  %-34s %s@." name
        (match r with
        | Verify.Safe { states } -> Printf.sprintf "SAFE (%d states)" states
        | Verify.Deadlocks { states; _ } ->
          Printf.sprintf "DEADLOCKS (found in %d states)" states
        | Verify.Out_of_budget _ -> "undecided"))
    configs;
  row "  (the computed table is safe and within a small constant of the@.";
  row "   breaking point — 'minimizing dummy message traffic', verified)@."

(* ------------------------------------------------------------------ *)
(* micro: bechamel microbenchmarks of the core computations.            *)

let micro () =
  section "micro" "bechamel microbenchmarks (ns per run, OLS estimate)";
  let open Bechamel in
  let sp_g =
    Topo_gen.random_sp
      (Random.State.make [| 5 |])
      ~target_edges:2_000 ~max_cap:8
  in
  let sp_tree =
    match Sp_recognize.recognize sp_g with Ok t -> t | Error _ -> assert false
  in
  let lad_g = Topo_gen.wide_ladder ~rungs:200 ~cap:3 in
  let lad =
    match Cs4.classify lad_g with
    | Ok { blocks = [ (_, _, Cs4.Ladder_block l) ]; _ } -> l
    | _ -> assert false
  in
  let hex = Topo_gen.fig3_hexagon () in
  let tests =
    [
      Test.make ~name:"recognize sp (2k edges)"
        (Staged.stage (fun () -> Sp_recognize.recognize sp_g));
      Test.make ~name:"setivals (2k edges)"
        (Staged.stage (fun () -> Sp_prop.intervals sp_g sp_tree));
      Test.make ~name:"sp nonprop (2k edges)"
        (Staged.stage (fun () -> Sp_nonprop.intervals sp_g sp_tree));
      Test.make ~name:"ladder prop (200 rungs)"
        (Staged.stage (fun () -> Ladder_prop.intervals lad_g lad));
      Test.make ~name:"ladder nonprop (200 rungs)"
        (Staged.stage (fun () -> Ladder_nonprop.intervals lad_g lad));
      Test.make ~name:"classify cs4 (200-rung ladder)"
        (Staged.stage (fun () -> Cs4.classify lad_g));
      Test.make ~name:"general baseline (hexagon)"
        (Staged.stage (fun () -> General.non_propagation hex));
      Test.make ~name:"simulate fig2 (100 inputs)"
        (Staged.stage (fun () ->
             let g = Topo_gen.fig2_triangle ~cap:2 in
             let kernels =
               Filters.for_graph g (fun v outs ->
                   if v = 0 then Filters.block_edge 2 outs
                   else Filters.passthrough outs)
             in
             Engine.run ~graph:g ~kernels ~inputs:100
               ~avoidance:
                 (Engine.Non_propagation
                    (Thresholds.of_array g [| Some 1; Some 1; Some 4 |]))
               ()));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name result ->
          let est = Analyze.one ols instance result in
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> row "  %-34s %a@." name pp_ns ns
          | _ -> row "  %-34s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* LP1. Polynomial LP interval backend vs the exact cycle route.        *)

let lp1 () =
  section "LP1" "LP interval backend vs exact cycle enumeration";
  let compile_with backend g =
    Compiler.compile
      ~options:{ Compiler.Options.default with backend }
      Compiler.Non_propagation g
  in
  let cycles_of = function
    | Ok { Compiler.route = Compiler.General_route { cycles }; _ } ->
      string_of_int cycles
    | Ok { Compiler.route = Compiler.Cs4_route _; _ } -> "cs4"
    | _ -> "-"
  in
  (* scaling: stacked dense bipartite layers; the undirected simple
     cycle count grows ~12x per layer, the LP row count linearly *)
  row "  layered_dense width 3, caps 2 — exact route vs LP backend:@.";
  row "  %6s %6s %10s %12s %12s %10s@." "layers" "edges" "cycles" "exact"
    "lp" "speedup";
  let both_sizes = if !quick then [ 2; 3; 4 ] else [ 2; 3; 4; 5 ] in
  let cliff = ref 0. in
  List.iter
    (fun layers ->
      let g = Topo_gen.layered_dense ~layers ~width:3 ~cap:2 in
      let t_exact, pe = time_once (fun () -> compile_with Compiler.Exact g) in
      let t_lp, pl = time_once (fun () -> compile_with Compiler.Lp g) in
      (match (pe, pl) with
      | Ok pe, Ok pl ->
        (* LP finite wherever exact is finite: same avoidance reach *)
        Array.iteri
          (fun i v ->
            if Interval.is_finite v then
              assert (Interval.is_finite pl.Compiler.intervals.(i)))
          pe.Compiler.intervals
      | _ -> assert false);
      cliff := t_exact /. t_lp;
      row "  %6d %6d %10s %a %a %9.1fx@." layers (Graph.num_edges g)
        (cycles_of pe) pp_ns t_exact pp_ns t_lp (t_exact /. t_lp);
      headline "LP1"
        (Printf.sprintf "lp_compile_ns_layers_%d" layers)
        t_lp)
    both_sizes;
  headline "LP1" "exact_over_lp_at_cliff" !cliff;
  (* the solver alone, best of 5, with the exact minor words and
     augmenting paths of one call (CI gates the 20 x 6 pair) *)
  row "  Lp.resolve on layered_dense (cap 2):@.  %10s %6s %6s %12s %12s@."
    "layers x w" "edges" "paths" "time" "minor words";
  List.iter
    (fun (layers, width) ->
      let g = Topo_gen.layered_dense ~layers ~width ~cap:2 in
      let gc, (_, st) = with_gc_stats (fun () -> Lp.resolve g) in
      let t = time_best ~repeat:5 (fun () -> Lp.resolve g) in
      let edges = Graph.num_edges g in
      row "  %6d x %d %6d %6d %a %12.0f@." layers width edges st.Lp.rpivots
        pp_ns t gc.minor_words;
      headline "LP1" (Printf.sprintf "resolve_ns_edges_%d" edges) t;
      if layers = 20 then begin
        headline "LP1" "resolve_minor_words_layered_20x6" gc.minor_words;
        headline "LP1" "resolve_paths_layered_20x6" (float st.Lp.rpivots)
      end)
    [ (3, 3); (7, 3); (14, 3); (28, 3); (10, 6); (20, 6) ];
  (* beyond the exact horizon: 7 layers carries ~28M simple cycles,
     past the default 10M budget, so the exact route's only possible
     answer is Cycle_budget_exceeded (exit 14 at the CLI) — measured
     here at a reduced budget so the bench stays snappy; the LP row
     count stays linear in the edge count *)
  let giveup_budget = if !quick then 1_000 else 20_000 in
  List.iter
    (fun layers ->
      let g = Topo_gen.layered_dense ~layers ~width:3 ~cap:2 in
      let t_give, r =
        time_once (fun () ->
            Compiler.compile
              ~options:
                { Compiler.Options.default with max_cycles = giveup_budget }
              Compiler.Non_propagation g)
      in
      let gave_up =
        match r with
        | Error (Compiler.Cycle_budget_exceeded _) -> true
        | _ -> false
      in
      let t_lp, rl = time_once (fun () -> compile_with Compiler.Lp g) in
      let rows =
        match rl with
        | Ok { Compiler.route = Compiler.Lp_route { rows; _ }; _ } -> rows
        | _ -> 0
      in
      row
        "  %6d %6d: exact gave up at %d cycles in %a (%s); lp %a (%d rows)@."
        layers (Graph.num_edges g) giveup_budget pp_ns t_give
        (ok gave_up) pp_ns t_lp rows;
      require "LP1"
        (Printf.sprintf "the exact route did not give up on layered %dx3" layers)
        gave_up;
      if layers = 7 then begin
        headline "LP1" "lp_compile_ns_giant" t_lp;
        headline "LP1" "giant_exact_giveup_ns" t_give
      end)
    (if !quick then [ 7 ] else [ 6; 7 ]);
  (* tightness: how much interval the polynomial certificate gives up
     against the exact table, on instances the exact route can finish *)
  let rng = Random.State.make [| 4242 |] in
  let tight_instances =
    [
      ("fig4_butterfly", Topo_gen.fig4_butterfly ~cap:2);
      ("layered 2x3", Topo_gen.layered_dense ~layers:2 ~width:3 ~cap:2);
      ("layered 3x3", Topo_gen.layered_dense ~layers:3 ~width:3 ~cap:2);
      ("random 2x3 a", Topo_gen.random_dense rng ~layers:2 ~width:3 ~max_cap:3);
      ("random 2x3 b", Topo_gen.random_dense rng ~layers:2 ~width:3 ~max_cap:3);
    ]
  in
  let ratios = ref [] and cap_ratios = ref [] in
  row "  tightness on exact-solvable instances (threshold ratios):@.";
  List.iter
    (fun (name, g) ->
      match (compile_with Compiler.Exact g, compile_with Compiler.Lp g) with
      | Ok pe, Ok pl ->
        let rs = ref [] in
        Array.iteri
          (fun i v ->
            match
              (Interval.threshold v, Interval.threshold pl.Compiler.intervals.(i))
            with
            | Some ke, Some kl -> rs := (float ke /. float kl) :: !rs
            | _ -> ())
          pe.Compiler.intervals;
        let mean l = List.fold_left ( +. ) 0. l /. float (max 1 (List.length l)) in
        let m = mean !rs in
        ratios := m :: !ratios;
        (* buffer overhead: capacities the LP sizing pass needs to
           certify the exact table, vs the capacities the instance has *)
        let thresholds = Array.map Interval.threshold pe.Compiler.intervals in
        let caps = Lp.min_buffers g ~thresholds in
        let sum a = Array.fold_left ( + ) 0 a in
        let orig =
          Array.init (Graph.num_edges g) (fun i -> (Graph.edge g i).Graph.cap)
        in
        let cr = float (sum caps) /. float (max 1 (sum orig)) in
        cap_ratios := cr :: !cap_ratios;
        row "  %-14s mean exact/lp threshold %5.2f   min_buffers/orig %5.2f@."
          name m cr
      | _ -> row "  %-14s compile failed@." name)
    tight_instances;
  let mean l = List.fold_left ( +. ) 0. l /. float (max 1 (List.length l)) in
  headline "LP1" "mean_tightness_exact_over_lp" (mean !ratios);
  headline "LP1" "mean_min_buffers_cap_ratio" (mean !cap_ratios);
  (* the conservative table must still be wedge-free: exhaustive check
     over all filtering choices on small instances, all three wrappers *)
  let verify_instances =
    [
      ("fig4_butterfly", Topo_gen.fig4_butterfly ~cap:2);
      ("layered 2x2", Topo_gen.layered_dense ~layers:2 ~width:2 ~cap:2);
      ("random 1x2", Topo_gen.random_dense rng ~layers:1 ~width:2 ~max_cap:2);
    ]
  in
  let all_safe = ref true in
  List.iter
    (fun (name, g) ->
      match compile_with Compiler.Lp g with
      | Ok p ->
        List.iter
          (fun (mode, av) ->
            let r =
              Verify.check ~max_states:20_000 ~graph:g ~avoidance:av ~inputs:3
                ()
            in
            let safe =
              match r with Verify.Deadlocks _ -> false | _ -> true
            in
            if not safe then all_safe := false;
            row "  %-14s %-16s %s@." name mode
              (ok safe))
          [
            ( "non-propagation",
              Engine.Non_propagation
                (Compiler.send_thresholds g p.Compiler.intervals) );
            ( "propagation",
              Engine.Propagation
                (Compiler.propagation_thresholds g p.Compiler.intervals) );
            ( "relay",
              Engine.Propagation
                (Compiler.send_thresholds g p.Compiler.intervals) );
          ]
      | Error _ ->
        all_safe := false;
        row "  %-14s LP compile failed@." name)
    verify_instances;
  headline "LP1" "verify_wedge_free" (if !all_safe then 1.0 else 0.0);
  require "LP1" "an LP table failed to compile or reached a wedge" !all_safe

(* ------------------------------------------------------------------ *)
(* RC1. Hot reconfiguration: incremental recompile vs full compile.    *)

let rc1 () =
  section "RC1" "hot reconfiguration: incremental recompile vs full";
  (* Full compile of the edited graph vs incremental recompile from a
     cache primed on [g], best of 3 each. A recompile consumes the
     previous epoch's snapshot, so the cache is re-primed before every
     trial. The incremental table is required bit-identical to the full
     one first. *)
  let trial algorithm g delta =
    let cache = Compiler.cache_create () in
    let prime () =
      match Compiler.compile_cached cache algorithm g with
      | Ok _ -> ()
      | Error _ -> assert false
    in
    let full () =
      match Compiler.compile algorithm delta.Edit.graph with
      | Ok p -> p
      | Error _ -> assert false
    in
    let incr () =
      match Compiler.recompile cache algorithm delta with
      | Ok r -> r
      | Error _ -> assert false
    in
    prime ();
    let pi, stats = incr () in
    require "RC1" "an incremental table differs from the full compile's"
      (Array.for_all2 Interval.equal (full ()).Compiler.intervals
         pi.Compiler.intervals);
    let t_full = time_best full in
    let best = ref infinity in
    for _ = 1 to 3 do
      prime ();
      let t, _ = time_once incr in
      if t < !best then best := t
    done;
    (t_full, !best, stats)
  in
  let resize_first g =
    let e0 = Graph.edge g 0 in
    Edit.apply g [ Edit.Resize { edge = 0; cap = e0.Graph.cap + 1 } ]
  in
  (* latency: a one-edge resize on growing CS4 chains. A full compile
     re-derives every serial block; the incremental recompile splices
     every clean block and recomputes only the edited one, so its
     latency tracks the block size, not the graph size. *)
  let rng = Random.State.make [| 90125 |] in
  let sizes = if !quick then [ 4; 16 ] else [ 4; 8; 16; 32; 64 ] in
  row "  random CS4 chain, resize one edge: full recompile vs incremental@.";
  row "  %6s %6s %12s %12s %8s %9s@." "blocks" "edges" "full" "incr" "spliced"
    "speedup";
  let t_incr_first = ref 0. and t_incr_last = ref 0. in
  let speedup_last = ref 0. in
  List.iter
    (fun blocks ->
      let g = Topo_gen.random_cs4 rng ~blocks ~block_edges:6 ~max_cap:5 in
      match resize_first g with
      | Error _ -> row "  edit failed@."
      | Ok delta ->
        let t_full, t_incr, stats =
          trial Compiler.Non_propagation g delta
        in
        if !t_incr_first = 0. then t_incr_first := t_incr;
        t_incr_last := t_incr;
        speedup_last := t_full /. t_incr;
        row "  %6d %6d %a %a %8d %8.1fx@." blocks (Graph.num_edges g) pp_ns
          t_full pp_ns t_incr stats.Compiler.spliced_edges (t_full /. t_incr);
        headline "RC1"
          (Printf.sprintf "incr_recompile_ns_blocks_%d" blocks)
          t_incr)
    sizes;
  headline "RC1" "incremental_over_full" !speedup_last;
  (* sublinearity: graph size grew [last/first] sizes-fold; the
     incremental latency must grow by much less *)
  let size_growth =
    float (List.nth sizes (List.length sizes - 1)) /. float (List.hd sizes)
  in
  let incr_growth = !t_incr_last /. max 1. !t_incr_first in
  row "  graph grew %.0fx, incremental latency grew %.1fx (%s)@." size_growth
    incr_growth
    (ok (incr_growth < size_growth));
  headline "RC1" "size_growth" size_growth;
  headline "RC1" "incremental_latency_growth" incr_growth;
  (* one SP block, a random SP-DAG in parallel with one edge: nothing
     splices, so the recompile re-runs the block's update and saves
     only the DAG, connectivity and classification checks *)
  let rng = Random.State.make [| 2048 |] in
  let target = if !quick then 256 else 2048 in
  let g =
    Sp_build.to_graph
      (Sp_build.Parallel
         [ Topo_gen.random_sp_spec rng ~target_edges:(target - 1) ~max_cap:5;
           Sp_build.Edge 5 ])
  in
  (match resize_first g with
  | Error _ -> row "  edit failed@."
  | Ok delta ->
    row "  one SP block of %d edges, resize one edge@." (Graph.num_edges g);
    row "  %-16s %12s %12s %10s %9s@." "algorithm" "full" "incr" "recomputed"
      "speedup";
    List.iter
      (fun (name, algorithm) ->
        let t_full, t_incr, stats = trial algorithm g delta in
        row "  %-16s %a %a %10d %8.1fx@." name pp_ns t_full pp_ns t_incr
          stats.Compiler.recomputed_edges (t_full /. t_incr);
        headline "RC1" (Printf.sprintf "one_block_full_ns_%s" name) t_full;
        headline "RC1" (Printf.sprintf "one_block_incr_ns_%s" name) t_incr)
      [ ("propagation", Compiler.Propagation);
        ("non-propagation", Compiler.Non_propagation) ]);
  (* a structural edit compiles cold: an add-stage on e0 of a CS4
     chain splices nothing, so the recompile costs what a cold compile
     does ([trial] checks the tables are equal) *)
  let rng = Random.State.make [| 6032 |] in
  row "  random CS4 chain, add a stage on e0: cold compile vs recompile@.";
  row "  %6s %6s %12s %12s %8s@." "blocks" "edges" "full" "incr" "spliced";
  List.iter
    (fun blocks ->
      let g = Topo_gen.random_cs4 rng ~blocks ~block_edges:6 ~max_cap:5 in
      match
        Edit.apply g [ Edit.Add_stage { edge = 0; cap_in = 2; cap_out = 2 } ]
      with
      | Error _ -> row "  edit failed@."
      | Ok delta ->
        let t_full, t_incr, stats = trial Compiler.Non_propagation g delta in
        row "  %6d %6d %a %a %8d@." blocks (Graph.num_edges g) pp_ns t_full
          pp_ns t_incr stats.Compiler.spliced_edges;
        headline "RC1" (Printf.sprintf "add_stage_full_ns_blocks_%d" blocks)
          t_full;
        headline "RC1" (Printf.sprintf "add_stage_incr_ns_blocks_%d" blocks)
          t_incr;
        require "RC1" "a structural edit spliced a block"
          (stats.Compiler.spliced_edges = 0))
    [ 6; 32 ]

(* ------------------------------------------------------------------ *)
(* ADM. Admission analysis of a served non-CS4 tenant: lint of each
   recompiled plan against the recompile it gates.                      *)

let adm () =
  section "ADM" "admission: lint per recompiled layered-dense plan (LP)";
  (* The reconfigure workload's non-CS4 tenant: a 3 x 3 layered-dense
     DAG with capacities 2-6, served under the LP backend (where FS201
     is a Warning). A session of edits, two resizes to one add-stage,
     each recompiled on a fork of the session cache (as Serve does) and
     linted given that plan; best of three per plan. *)
  let rng = Random.State.make [| 1 |] in
  let recap g =
    Graph.make ~nodes:(Graph.num_nodes g)
      (List.map
         (fun (e : Graph.edge) -> (e.src, e.dst, 2 + Random.State.int rng 5))
         (Graph.edges g))
  in
  let algorithm = Compiler.Non_propagation in
  let options = { Compiler.Options.default with backend = Compiler.Lp } in
  let config = { Lint.default_config with Lint.backend = Compiler.Lp } in
  let cache = Compiler.cache_create () in
  let g0 = recap (Topo_gen.layered_dense ~layers:3 ~width:3 ~cap:1) in
  ignore (Compiler.compile_cached ~options cache algorithm g0);
  let plans = if !quick then 20 else 100 in
  let cur = ref g0 in
  let lint_t = ref [] and recompile_t = ref [] and cycles = ref [] in
  let incomplete = ref 0 in
  for i = 1 to plans do
    let g = !cur in
    let op =
      let edge = Random.State.int rng (Graph.num_edges g) in
      let cap () = 2 + Random.State.int rng 5 in
      if i mod 3 = 0 then
        Edit.Add_stage { edge; cap_in = cap (); cap_out = cap () }
      else Edit.Resize { edge; cap = cap () }
    in
    match Edit.apply g [ op ] with
    | Error e -> failwith ("ADM: " ^ e)
    | Ok delta ->
      let recompile c =
        match Compiler.recompile ~options c algorithm delta with
        | Ok (p, _) -> p
        | Error e -> failwith (Compiler.error_to_string e)
      in
      let t_recompile =
        time_best (fun () -> recompile (Compiler.cache_fork cache))
      in
      let plan = recompile cache in
      let g = delta.Edit.graph in
      let report = Lint.run ~config ~plan:(Ok plan) g in
      if report.Lint.incomplete <> None then incr incomplete;
      let t_lint = time_best (fun () -> Lint.run ~config ~plan:(Ok plan) g) in
      lint_t := t_lint :: !lint_t;
      recompile_t := t_recompile :: !recompile_t;
      cycles := float (Cycles.count g) :: !cycles;
      cur := g
  done;
  let mean l = List.fold_left ( +. ) 0. l /. float (List.length l) in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let lint_mean = mean !lint_t and recompile_mean = mean !recompile_t in
  row "  %d plans, %.0f simple cycles each on average, %d incomplete@." plans
    (mean !cycles) !incomplete;
  row "  %-10s %12s %12s@." "" "mean" "median";
  row "  %-10s %a %a@." "recompile" pp_ns recompile_mean pp_ns
    (median !recompile_t);
  row "  %-10s %a %a@." "lint" pp_ns lint_mean pp_ns (median !lint_t);
  row "  lint / recompile = %.2f (<= 1: %s)@." (lint_mean /. recompile_mean)
    (ok (lint_mean <= recompile_mean));
  headline "ADM" "layered_dense_lint_ns" lint_mean;
  headline "ADM" "layered_dense_recompile_ns" recompile_mean;
  headline "ADM" "layered_dense_incomplete" (float !incomplete)

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("F1", f1);
    ("F2", f2);
    ("F3", f3);
    ("F4", f4);
    ("F5", f5);
    ("F6", f6);
    ("C1", c1);
    ("C2", c2);
    ("C3", c3);
    ("C4", c4);
    ("C5", c5);
    ("C6", c6);
    ("C7", c7);
    ("FE1", fe1);
    ("LP1", lp1);
    ("RC1", rc1);
    ("ADM", adm);
    ("O1", o1);
    ("V1", v1);
    ("V2", v2);
    ("S1", s1);
    ("S2", s2);
    ("P1", p1);
    ("FU1", fu1);
    ("SV1", sv1);
    ("A1", a1);
    ("A2", a2);
    ("A3", a3);
    ("micro", micro);
  ]

let () =
  (* flags: [--quick] shrinks every sweep (CI smoke); [--json FILE]
     writes the sections' headline numbers as one JSON object at exit;
     [--only] is an accepted no-op so `-- --only C7 --quick` reads
     naturally. The remaining arguments select sections, default all. *)
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
      quick := true;
      parse acc rest
    | "--json" :: path :: rest ->
      json_file := Some path;
      parse acc rest
    | "--only" :: rest -> parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let requested = match args with [] -> List.map fst sections | l -> l in
  Format.printf
    "filterstream benchmark harness — every table/figure of the paper@.";
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Format.printf "unknown section %S (available: %s)@." name
          (String.concat ", " (List.map fst sections)))
    requested;
  write_json ()
