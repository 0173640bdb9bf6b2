(* The benchmark's own tests: the tail-percentile rule, the self-time
   arithmetic, the timed phase from the fastest segments, the
   BENCHMARK.json rendering, the determinism of the generated inputs
   and of the counters. *)

open Pbench

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let floats n = List.init n (fun i -> float (i + 1))

let test_percentiles () =
  let a = Stats.sorted (floats 100) in
  check "p50 of 1..100 is 50" (Stats.percentile a 50. = 50.);
  check "p90 of 1..100 is 90" (Stats.percentile a 90. = 90.);
  check "p99 of 1..100 is 99" (Stats.percentile a 99. = 99.);
  check "p100 is the max" (Stats.percentile a 100. = 100.);
  check "p1 of 1..100 is 1" (Stats.percentile a 1. = 1.);
  (* 100 samples: p99 and p95 have 1 and 5 beyond, p90 exactly 10 *)
  let t = Stats.tail a in
  check "tail of 100 samples is p90" (t.Stats.label = "p90" && t.Stats.beyond = 10);
  check "p90 of 100 samples is sufficient" t.Stats.sufficient;
  let t = Stats.tail (Stats.sorted (floats 1000)) in
  check "tail of 1000 samples is p99" (t.Stats.label = "p99" && t.Stats.value = 990.);
  let t = Stats.tail (Stats.sorted (floats 200)) in
  check "tail of 200 samples is p95" (t.Stats.label = "p95" && t.Stats.beyond = 10);
  let t = Stats.tail (Stats.sorted (floats 199)) in
  check "tail of 199 samples falls back to p90" (t.Stats.label = "p90");
  let t = Stats.tail (Stats.sorted (floats 50)) in
  check "50 samples: p90 flagged insufficient"
    (t.Stats.label = "p90" && t.Stats.beyond = 5 && not t.Stats.sufficient)

let span ~id ~name ~start ~stop ~parent =
  { Trace.id; name; start; stop; parent; rid = 0; replay_of = None }

let test_self_times () =
  let spans =
    [
      span ~id:0 ~name:"request" ~start:0. ~stop:10. ~parent:(-1);
      span ~id:1 ~name:"lint.run" ~start:1. ~stop:3. ~parent:0;
      span ~id:2 ~name:"compiler.compile" ~start:2. ~stop:5. ~parent:0;
      (* runs past its parent: only [9, 10] counts against the parent *)
      span ~id:3 ~name:"serve.admit" ~start:9. ~stop:12. ~parent:0;
      span ~id:4 ~name:"cs4.classify" ~start:3.5 ~stop:4.5 ~parent:2;
    ]
  in
  let self = Trace.self_times spans in
  let of_id id = snd (List.find (fun (s, _) -> s.Trace.id = id) self) in
  check "root self = 10 - |[1,5] u [9,10]|" (of_id 0 = 5.);
  check "leaf self = duration" (of_id 1 = 2. && of_id 3 = 3. && of_id 4 = 1.);
  check "child self excludes its own child" (of_id 2 = 2.);
  check "layer is the name up to the first dot"
    (Trace.layer "compiler.compile" = "compiler" && Trace.layer "request" = "request");
  (* recording through the API nests spans under the open request *)
  let t = Trace.create ~enabled:true in
  Trace.span ~rid:7 t "request" (fun () ->
      Trace.span t "lint.run" (fun () -> ());
      Trace.span t "serve.admit" (fun () -> ()));
  let s = Trace.spans t in
  let root = List.find (fun s -> s.Trace.name = "request") s in
  check "three spans recorded" (List.length s = 3);
  check "children point at the request and share its id"
    (List.for_all
       (fun x -> x.Trace.name = "request" || (x.Trace.parent = root.Trace.id && x.Trace.rid = 7))
       s);
  let off = Trace.create ~enabled:false in
  check "disabled trace records nothing"
    (Trace.span off "x" (fun () -> 42) = 42 && Trace.spans off = [])

(* The timed phase at each segment's fastest pass: segments are taken
   whole from one pass, the last one may be short, and the shortest
   pass sets the length. *)
let test_fastest_segments () =
  let k = Common.segment in
  let a = Array.make ((2 * k) + (k / 2)) 1. in
  let b =
    Array.init (Array.length a + 3) (fun i ->
        if i < k then 0.5 else if i < 2 * k then 2. else 0.1)
  in
  (* one step of the first segment is slow in b, yet b's segment wins *)
  b.(0) <- 1.5;
  let expect = 1.5 +. (0.5 *. float (k - 1)) +. float k +. (0.1 *. float (k / 2)) in
  check "fastest segments add up per segment"
    (Float.abs (Common.fastest_segments [ a; b ] -. expect) < 1e-9);
  check "one pass is its own timed phase"
    (Common.fastest_segments [ a ] = Array.fold_left ( +. ) 0. a)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let valid_name s =
  String.length s >= 1 && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let test_benchmark_json () =
  check "committed BENCHMARK.json is the rendering of Spec"
    (read_file "../BENCHMARK.json" = Spec.benchmark_json ());
  let all = Spec.end_to_end @ Spec.per_layer in
  let names = List.map (fun m -> m.Spec.name) all @ List.map fst Spec.workloads in
  check "metric and workload names are valid" (List.for_all valid_name names);
  check "names are used once"
    (List.length (List.sort_uniq compare names) = List.length names);
  check "whys fit one line of 200 characters"
    (List.for_all
       (fun (_, why) -> String.length why <= 200 && not (String.contains why '\n'))
       Spec.workloads);
  check "bounds lie in (0, 0.25]"
    (List.for_all
       (fun m -> match m.Spec.bound with Some b -> b > 0. && b <= 0.25 | None -> false)
       Spec.end_to_end);
  let bound name =
    match List.find_opt (fun m -> m.Spec.name = name) Spec.end_to_end with
    | Some { Spec.bound = Some b; better = Spec.Lower; unit = "s"; _ } -> b
    | _ -> -1.
  in
  check "setup_s has the largest bound"
    (List.for_all
       (fun m -> Option.value ~default:0. m.Spec.bound <= bound "setup_s")
       Spec.end_to_end);
  check "per-layer metrics carry no bound"
    (List.for_all (fun m -> m.Spec.bound = None) Spec.per_layer);
  check "2 to 8 workloads"
    (let n = List.length Spec.workloads in n >= 2 && n <= 8);
  check "Spec lists the workloads Inputs generates"
    (List.map fst Spec.workloads = Inputs.workload_names)

let test_inputs_deterministic () =
  List.iter
    (fun workload ->
      let a = Inputs.all_text ~workload ~seed:7 ~count:40 in
      let b = Inputs.all_text ~workload ~seed:7 ~count:40 in
      let c = Inputs.all_text ~workload ~seed:8 ~count:40 in
      check (workload ^ ": one seed regenerates byte-identical inputs") (a = b);
      check (workload ^ ": another seed gives other inputs") (a <> c))
    Inputs.workload_names;
  ()

(* A traced run measures the same work as an untraced one: its traced
   pass must repeat the first pass's counters (else the run records a
   mismatch), and both runs of one seed report the same counters. *)
let test_counters_repeat () =
  List.iter
    (fun workload ->
      let run trace =
        (Driver.run ~workload ~seed:5 ~requests:12 ~trace).Driver.result
      in
      let u = run false and t = run true in
      check (workload ^ ": every pass repeats the first pass's counters")
        (u.Common.mismatches = [] && t.Common.mismatches = []);
      check (workload ^ ": traced and untraced runs report the same counters")
        (u.Common.counters <> [] && u.Common.counters = t.Common.counters))
    Inputs.workload_names

let () =
  test_percentiles ();
  test_self_times ();
  test_fastest_segments ();
  test_benchmark_json ();
  test_inputs_deterministic ();
  test_counters_repeat ();
  if !failures > 0 then exit 1
