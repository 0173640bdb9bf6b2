(* One run of one workload: the passes, and the metrics drawn from
   them. Every pass issues the same requests on freshly set-up state.
   Untraced, a run is [passes] passes, every request and every segment
   of the timed phase keeps its fastest pass, and the metrics are the
   end-to-end ones. Traced, a run is an
   untraced, a traced and an untraced pass, and the metrics are the
   per-layer ones. In both, the counters are the first pass's, which is
   untraced, and every other pass must repeat them exactly. *)

open Common

let run_workload name ctx =
  match name with
  | "reconfigure" -> Reconfigure.run ctx
  | "simulate" -> Simulate.run ctx
  | w -> invalid_arg ("Driver.run_workload: " ^ w)

let mb words = float (words * (Sys.word_size / 8)) /. 1048576.

let end_to_end (r : run_result) =
  let correct = r.attempted - List.length r.mismatches in
  [
    ("setup_s", Stats.median (Stats.sorted r.setups));
    ("requests_per_s", ratio (float (List.length r.latencies)) r.elapsed);
    ("request_p50_ms", p50 (List.map snd r.latencies));
    ("request_tail_ms", tail (List.map snd r.latencies));
    ("success_rate", ratio (float (max 0 correct)) (float r.attempted));
    ("heap_peak_mb", mb r.heap_peak_words);
  ]

(* Each traced request's time as served, ms: its span minus the calls
   the benchmark replayed inside it. *)
let served spans =
  let roots = List.filter (fun s -> s.Trace.name = "request") spans in
  let replayed = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.Trace.replay_of <> None then
        Hashtbl.replace replayed s.Trace.rid
          (ms (Trace.duration s) +. get replayed s.Trace.rid))
    spans;
  List.map (fun s -> ms (Trace.duration s) -. get replayed s.Trace.rid) roots

(* Per-layer metrics of the traced pass, from its spans; the workload's
   own figures extend them. [untraced] is the pass after it, over the
   same requests. *)
let per_layer ~traced ~untraced spans =
  let served = served spans in
  let selfs = Trace.self_times spans in
  let accounted =
    Stats.sum
      (List.filter_map
         (fun (s, self) ->
           if s.Trace.rid >= 0 && s.Trace.name <> "request" then Some (ms self) else None)
         selfs)
  in
  let lint = span_ms spans "lint.run" in
  let base =
    [
      ("graph_io.parse_ms", p50 (span_ms spans "graph_io.parse"));
      ("edit.apply_ms", p50 (span_ms spans "edit.apply"));
      ("lint.ms_p50", p50 lint);
      ("lint.ms_tail", tail lint);
      ("lint.share", ratio (Stats.sum lint) (Stats.sum served));
      ("cs4.classify_ms", p50 (span_ms spans "cs4.classify"));
      ("compiler.compile_ms_p50", p50 (span_ms spans "compiler.compile"));
      ("compiler.compile_ms_tail", tail (span_ms spans "compiler.compile"));
      ("compiler.recompile_ms_p50", p50 (span_ms spans "compiler.recompile"));
      ("parallel_engine.run_ms_p50", p50 (span_ms spans "parallel_engine.run"));
      (* the served p50 of the traced pass over the untraced pass's p50
         on the same requests *)
      ( "obs.trace_overhead",
        ratio (p50 served) (p50 (List.map snd untraced.latencies)) );
      ("trace.accounted_share", ratio accounted (Stats.sum served));
    ]
  in
  let all = base @ traced.extra in
  List.map
    (fun (m : Spec.metric) ->
      (m.Spec.name, Option.value ~default:0. (List.assoc_opt m.Spec.name all)))
    Spec.per_layer

(* Host speed, for the report line only: the fastest of five runs of a
   fixed integer loop that touches no memory, timed before each pass.
   The host this was written on runs it in about half the time in its
   fast phases as in its slow ones. No metric is scaled by it. *)
let host_probe_ms () =
  let once () =
    let t0 = now () in
    let x = ref 0 in
    for i = 1 to 2_000_000 do
      x := ((!x * 31) + i) land 0xffff
    done;
    ignore (Sys.opaque_identity !x);
    ms (now () -. t0)
  in
  min_float (List.init 5 (fun _ -> once ()))

type outcome = {
  result : run_result;
      (** all passes together: each request at its fastest pass, the
          timed phase at each segment's fastest pass, the first pass's
          counters, every pass's outputs *)
  metrics : (string * float) list;
  spans : Trace.span list;  (** the traced pass's; [] untraced *)
  pass_elapsed : float list;  (** seconds of each pass's timed phase *)
  host_probe_ms : float list;  (** [host_probe_ms ()] before each pass *)
}

let run ~workload ~seed ~requests ~trace =
  let probes = ref [] in
  let pass ~traced =
    probes := host_probe_ms () :: !probes;
    Gc.compact ();
    let ctx = { seed; requests; tr = Trace.create ~enabled:traced } in
    (run_workload workload ctx, ctx.tr)
  in
  let first, _ = pass ~traced:false in
  let again ~traced = pass ~traced in
  if not trace then begin
    let rest = List.init (passes - 1) (fun _ -> fst (again ~traced:false)) in
    let all = first :: rest in
    let result = best_of all in
    { result; metrics = end_to_end result; spans = [];
      pass_elapsed = List.map (fun p -> p.elapsed) all;
      host_probe_ms = List.rev !probes }
  end
  else begin
    (* the overhead compares the traced pass with the one after it,
       which like it runs on the heap the first pass grew *)
    let traced, tr = again ~traced:true in
    let untraced, _ = again ~traced:false in
    let spans = Trace.spans tr in
    let all = [ first; traced; untraced ] in
    { result = best_of all;
      metrics = per_layer ~traced ~untraced spans;
      spans;
      pass_elapsed = List.map (fun p -> p.elapsed) all;
      host_probe_ms = List.rev !probes }
  end
