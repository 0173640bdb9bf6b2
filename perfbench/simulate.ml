(* simulate: the [streamcheck simulate] path, one shot per request:
   parse the graph file, compile (fused for pipelines), run on the
   sequential engine. Nothing is cached between requests. *)

open Fstream_graph
open Common
module Cs4 = Fstream_ladder.Cs4
module Fused = Fstream_runtime.Fused
module Fusion = Fstream_core.Fusion

(* Engine.run's default dense_below: graphs below it run the sweep
   loop, graphs at or above it the ready worklist. *)
let dense_below = 512

type outcome = {
  gi : int;
  kseed : int;
  report : Report.t;
  fused : bool;
}

type acc = {
  mutable small_ns : float;
  mutable small_msgs : int;
  mutable large_ns : float;
  mutable large_msgs : int;
  mutable fused_ns : float;
  mutable fused_firings : int;
  mutable rounds : int;
  mutable words : float;
  mutable words_msgs : int;
  mutable dummies : int;
  mutable data : int;
}

let parse_request line = Scanf.sscanf line "sim %d %d" (fun g k -> (g, k))

let run ctx =
  let graphs = Inputs.sim_graphs () in
  let new_acc () =
    { small_ns = 0.; small_msgs = 0; large_ns = 0.; large_msgs = 0;
      fused_ns = 0.; fused_firings = 0; rounds = 0; words = 0.;
      words_msgs = 0; dummies = 0; data = 0 }
  in
  let a = new_acc () in
  let serve_request ~tr ~a (gi, kseed) =
    let sg = graphs.(gi) in
    let g = Trace.span tr "graph_io.parse" (fun () -> parse_graph sg.Inputs.stext) in
    let plan =
      match
        Trace.span tr "compiler.compile" (fun () ->
            Compiler.compile
              ~options:{ Compiler.Options.default with fuse = sg.Inputs.fuse }
              algorithm g)
      with
      | Ok p -> p
      | Error e -> failwith ("simulate compile failed: " ^ Compiler.error_to_string e)
    in
    (* the classification compile made, repeated to time it *)
    if Trace.enabled tr then
      ignore
        (Trace.span ~replay_of:"compiler.compile" tr "cs4.classify" (fun () ->
             Cs4.classify g));
    let ks = kernels g ~kseed ~keep:sg.Inputs.skeep in
    (* time and allocation read inside the span, so that tracing
       moves neither *)
    let exec name graph th kernels =
      Trace.span tr name (fun () ->
          let w0 = Gc.minor_words () and t0 = now () in
          let r =
            Run.exec
              (Run.sequential ~avoidance:(Engine.Non_propagation th) ())
              ~graph ~kernels ~inputs:sg.Inputs.sinputs ()
          in
          (r, now () -. t0, Gc.minor_words () -. w0))
    in
    match plan.Compiler.fused with
    | Some { Compiler.fusion; fused_intervals } ->
      let fg = fusion.Fusion.graph in
      let fw = Fused.make fusion ks in
      let r, dt, _ =
        exec "fused.run" fg (Compiler.send_thresholds fg fused_intervals)
          (Fused.kernels fw)
      in
      a.fused_ns <- a.fused_ns +. (dt *. 1e9);
      a.fused_firings <- a.fused_firings + Array.fold_left ( + ) 0 (Fused.fired fw);
      a.rounds <- a.rounds + Option.value ~default:0 (Report.rounds r);
      { gi; kseed; report = r; fused = true }
    | None ->
      let r, dt, words =
        exec "engine.run" g (Compiler.send_thresholds g plan.Compiler.intervals) ks
      in
      let msgs = r.Report.data_messages + r.Report.dummy_messages in
      if Graph.num_nodes g < dense_below then begin
        a.small_ns <- a.small_ns +. (dt *. 1e9);
        a.small_msgs <- a.small_msgs + msgs
      end
      else begin
        a.large_ns <- a.large_ns +. (dt *. 1e9);
        a.large_msgs <- a.large_msgs + msgs
      end;
      a.rounds <- a.rounds + Option.value ~default:0 (Report.rounds r);
      a.words <- a.words +. words;
      a.words_msgs <- a.words_msgs + msgs;
      a.dummies <- a.dummies + r.Report.dummy_messages;
      a.data <- a.data + r.Report.data_messages;
      { gi; kseed; report = r; fused = false }
  in
  let setup () =
    let reqs = Inputs.sim_requests ~seed:ctx.seed ~count:ctx.requests in
    (* warm-up: one request per graph *)
    let tr = Trace.create ~enabled:false and a = new_acc () in
    Array.iteri
      (fun gi _ -> ignore (serve_request ~tr ~a (gi, 0)))
      graphs;
    reqs
  in
  let setups, reqs = timed_setup setup in
  let tr = ctx.tr in
  let outcomes = ref [] and latencies = ref [] in
  let step i =
    let t0 = now () in
    let o =
      Trace.span ~rid:i tr "request" (fun () ->
          serve_request ~tr ~a (parse_request reqs.(i)))
    in
    latencies := (graphs.(o.gi).Inputs.sname, ms (now () -. t0)) :: !latencies;
    outcomes := o :: !outcomes
  in
  let elapsed, steps, peak = timed_loop ctx step in
  (* correctness: every run against an unfused sequential reference of
     a cache-free compile on the same kernels *)
  let mismatches = ref [] in
  List.iter
    (fun o ->
      let sg = graphs.(o.gi) in
      let reference =
        remembered_run (parse_graph sg.Inputs.stext) ~backend:Compiler.Exact
          ~kseed:o.kseed ~keep:sg.Inputs.skeep ~inputs:sg.Inputs.sinputs
      in
      let bad =
        match reference with
        | Error e -> Some ("reference compile failed: " ^ e)
        | Ok ref_r ->
          if o.report.Report.outcome <> Report.Completed then Some "run did not complete"
          else if o.report.Report.sink_data <> ref_r.Report.sink_data then
            Some "sink count differs from the sequential reference"
          else if (not o.fused) && o.report <> ref_r then
            Some "report differs from the sequential reference"
          else None
      in
      Option.iter (fun m -> mismatches := (sg.Inputs.sname ^ ": " ^ m) :: !mismatches) bad)
    !outcomes;
  let extra =
    [
      ("data_msgs_per_s",
       float (List.fold_left (fun s o -> s + o.report.Report.data_messages) 0 !outcomes)
       /. elapsed);
      ("dummy_per_data", ratio (float a.dummies) (float a.data));
      ("engine.ns_per_msg.small", ratio a.small_ns (float a.small_msgs));
      ("engine.ns_per_msg.large", ratio a.large_ns (float a.large_msgs));
      ("fused.ns_per_msg", ratio a.fused_ns (float a.fused_firings));
      ("engine.rounds", float a.rounds);
      ("engine.minor_words_per_msg", ratio a.words (float a.words_msgs));
    ]
  in
  {
    setups;
    latencies = List.rev !latencies;
    elapsed;
    steps;
    attempted = ctx.requests;
    mismatches = !mismatches;
    heap_peak_words = peak;
    extra;
    counters =
      [
        ("dummy_per_data", ratio (float a.dummies) (float a.data));
        ("engine.rounds", float a.rounds);
        ("engine.minor_words_per_msg", ratio a.words (float a.words_msgs));
      ];
    notes = [];
  }
