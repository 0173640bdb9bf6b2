(* What the benchmark measures: its workloads and metrics, by name and
   unit. BENCHMARK.json is rendered from these tables
   ([e2e.exe --emit-benchmark-json]) and a test keeps the committed
   file equal to the rendering. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

let command = [ "python3"; "perfbench/run.py" ]
let paths = [ "perfbench" ]
let run_seconds = 45

let workloads =
  [
    ( "reconfigure",
      "tenants alternate pool runs with edit scripts (resize, add-stage, \
       remove-stage; some revisit a known topology, some arrive mid-run): \
       sessions, pool, recompile, warm LP, drain" );
    ( "simulate",
      "one-shot simulate requests: parse, compile (fused for pipelines) and \
       a sequential run, on graphs both sides of dense_below, so the \
       sequential engine and fusion work" );
  ]

let e2e name unit better bound = { name; unit; better; bound = Some bound }
let layer name unit better = { name; unit; better; bound = None }

let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "requests_per_s" "1/s" Higher 0.25;
    e2e "request_p50_ms" "ms" Lower 0.25;
    e2e "request_tail_ms" "ms" Lower 0.25;
    e2e "success_rate" "ratio" Higher 0.01;
    e2e "heap_peak_mb" "MB" Lower 0.25;
  ]

let per_layer =
  [
    layer "reconfig_p50_ms" "ms" Lower;
    layer "reconfig_tail_ms" "ms" Lower;
    layer "data_msgs_per_s" "1/s" Higher;
    layer "dummy_per_data" "ratio" Lower;
    layer "graph_io.parse_ms" "ms" Lower;
    layer "edit.apply_ms" "ms" Lower;
    layer "lint.ms_p50" "ms" Lower;
    layer "lint.ms_tail" "ms" Lower;
    layer "lint.share" "ratio" Lower;
    layer "lint.incomplete" "count" Lower;
    layer "graph.cycles" "count" Lower;
    layer "cs4.classify_ms" "ms" Lower;
    layer "compiler.compile_ms_p50" "ms" Lower;
    layer "compiler.compile_ms_tail" "ms" Lower;
    layer "compiler.route.cs4" "count" Higher;
    layer "compiler.route.general" "count" Lower;
    layer "compiler.route.lp" "count" Lower;
    layer "compiler.route.min" "count" Lower;
    layer "lp.rows" "count" Lower;
    layer "lp.pivots" "count" Lower;
    layer "compiler.recompile_ms_p50" "ms" Lower;
    layer "compiler.spliced_edges" "count" Higher;
    layer "compiler.recomputed_edges" "count" Lower;
    layer "lp.warm_pivots" "count" Lower;
    layer "serve.reconfigure_self_ms" "ms" Lower;
    layer "serve.drain_wait_ms" "ms" Lower;
    layer "serve.registry_hit_ratio" "ratio" Higher;
    layer "serve.compiles" "count" Lower;
    layer "serve.recompiles" "count" Lower;
    layer "serve.rejections" "count" Lower;
    layer "parallel_engine.run_ms_p50" "ms" Lower;
    layer "parallel_engine.blocked_per_msg" "ratio" Lower;
    layer "gc.minor_collections_per_run" "count" Lower;
    layer "engine.ns_per_msg.small" "ns" Lower;
    layer "engine.ns_per_msg.large" "ns" Lower;
    layer "fused.ns_per_msg" "ns" Lower;
    layer "engine.rounds" "count" Lower;
    layer "engine.minor_words_per_msg" "words" Lower;
    layer "obs.trace_overhead" "ratio" Lower;
    layer "trace.accounted_share" "ratio" Higher;
  ]

let find_metric name =
  List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)

let benchmark_json () =
  let q s = "\"" ^ Json.escape s ^ "\"" in
  let strings l = "[" ^ String.concat ", " (List.map q l) ^ "]" in
  let better = function Lower -> "lower" | Higher -> "higher" in
  let metric m =
    Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s%s}"
      (q m.name) (q m.unit)
      (q (better m.better))
      (match m.bound with
      | Some b -> Printf.sprintf ", \"bound\": %s" (Json.number b)
      | None -> "")
  in
  let block items = String.concat ",\n" items in
  String.concat ""
    [
      "{\n";
      Printf.sprintf "  \"command\": %s,\n" (strings command);
      Printf.sprintf "  \"paths\": %s,\n" (strings paths);
      Printf.sprintf "  \"run_seconds\": %d,\n" run_seconds;
      "  \"workloads\": [\n";
      block
        (List.map
           (fun (n, why) ->
             Printf.sprintf "    {\"name\": %s, \"why\": %s}" (q n) (q why))
           workloads);
      "\n  ],\n  \"end_to_end\": [\n";
      block (List.map metric end_to_end);
      "\n  ],\n  \"per_layer\": [\n";
      block (List.map metric per_layer);
      "\n  ]\n}\n";
    ]
