(* The end-to-end benchmark's entry point: one workload, one seed, one
   run.

   e2e.exe --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
   e2e.exe --emit-benchmark-json

   Prints a report line ({"report": ...}: host block, request classes,
   deterministic counters) and, last, the result line
   {"correct", "attempted", "failed", "metrics"}; see [Driver] for what
   a run measures. --seconds sizes the work (see [nominal_rate]). With
   --out-dir, a traced run writes its spans there.
   Exits 1 when an output differs from its reference, 2 on a usage
   error or when the host has no core to spare for the pool. *)

open Pbench
open Common

let usage () =
  prerr_endline
    "usage: e2e.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--out-dir DIR] | --emit-benchmark-json";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string option;
}

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and out_dir = ref None in
  let int_arg s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--emit-benchmark-json" :: _ ->
      print_string (Spec.benchmark_json ());
      exit 0
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_arg v); go rest
    | "--seconds" :: v :: rest -> seconds := Some (int_arg v); go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--out-dir" :: v :: rest -> out_dir := Some v; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload Inputs.workload_names && seconds >= 1 ->
    { workload = !workload; seed; seconds = float seconds; trace; out_dir = !out_dir }
  | _ -> usage ()

(* Requests per second each workload completes on the 2-core host the
   baseline was recorded on. They only size the work: a pass issues
   [rate * seconds / passes] requests, however fast the host runs, so
   that the request mix does not change with the host's speed; and at
   least 200, so that the p95 has ten samples beyond it. *)
let nominal_rate = function "reconfigure" -> 100. | _ -> 60.

let requests_per_pass workload seconds =
  max 200 (int_of_float (nominal_rate workload *. seconds /. float passes))

(* Self time per layer and its share of the traced requests' time as
   served; the shares add up to 1. *)
let layer_breakdown spans =
  let total = Stats.sum (Driver.served spans) in
  let h = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      if s.Trace.rid >= 0 then begin
        let l = if s.Trace.name = "request" then "benchmark" else Trace.layer s.Trace.name in
        Hashtbl.replace h l (ms self +. Option.value ~default:0. (Hashtbl.find_opt h l))
      end)
    (Trace.self_times spans);
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) h []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.map (fun (l, v) ->
         (l, Json.Obj [ ("self_ms", Json.Num v); ("share", Json.Num (ratio v total)) ]))

(* Count, share and latency quantiles of each request class: where the
   reported p50 and tail fall in the mix. *)
let class_summary latencies =
  let n = float (List.length latencies) in
  let classes = List.sort_uniq compare (List.map fst latencies) in
  Json.Obj
    (List.map
       (fun c ->
         let l = List.filter_map (fun (k, v) -> if k = c then Some v else None) latencies in
         ( c,
           Json.Obj
             [
               ("n", Json.Int (List.length l));
               ("share", Json.Num (float (List.length l) /. n));
               ("p50_ms", Json.Num (p50 l));
               ("p10_ms", Json.Num (percentile_ms l 10.));
               ("p90_ms", Json.Num (percentile_ms l 90.));
             ] ))
       classes)

let metric_json values =
  Json.Obj
    (List.map
       (fun (name, v) ->
         let unit =
           match Spec.find_metric name with Some m -> m.Spec.unit | None -> ""
         in
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
       values)

let () =
  let a = parse_args () in
  let nproc = Domain.recommended_domain_count () in
  if pool_width > nproc - 1 then begin
    Printf.eprintf
      "e2e: pool width %d refused: it must be at most nproc - 1 = %d \
       (the control thread needs a core of its own)\n"
      pool_width (nproc - 1);
    exit 2
  end;
  let o =
    Driver.run ~workload:a.workload ~seed:a.seed ~trace:a.trace
      ~requests:(requests_per_pass a.workload a.seconds)
  in
  let r = o.Driver.result and spans = o.Driver.spans in
  (match a.out_dir with
  | Some dir when spans <> [] ->
    let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.json" a.workload a.seed) in
    let oc = open_out path in
    output_string oc (Trace.to_json spans);
    close_out oc
  | _ -> ());
  let tl = Stats.tail (Stats.sorted (List.map snd r.latencies)) in
  let nums l = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) l) in
  let report =
    Json.Obj
      [
        ( "report",
          Json.Obj
            ([
               ("workload", Json.Str a.workload);
               ("seed", Json.Int a.seed);
               ("trace", Json.Bool a.trace);
               ("seconds", Json.Num a.seconds);
               ( "host",
                 Json.Obj
                   [
                     ("nproc", Json.Int nproc);
                     ("pool_width", Json.Int pool_width);
                     ("ocaml", Json.Str Sys.ocaml_version);
                     ( "ocamlrunparam",
                       match Sys.getenv_opt "OCAMLRUNPARAM" with
                       | Some v -> Json.Str v
                       | None -> Json.Null );
                   ] );
               ("requests", Json.Int (List.length r.latencies));
               ("classes", class_summary r.latencies);
               ( "pass_elapsed_s",
                 Json.List (List.map (fun v -> Json.Num v) o.Driver.pass_elapsed) );
               ( "host_probe_ms",
                 Json.List (List.map (fun v -> Json.Num v) o.Driver.host_probe_ms) );
               ( "request_tail",
                 Json.Obj
                   [
                     ("percentile", Json.Str tl.Stats.label);
                     ("samples_beyond", Json.Int tl.Stats.beyond);
                     ("sufficient", Json.Bool tl.Stats.sufficient);
                   ] );
               ("setup_s_samples", Json.List (List.map (fun v -> Json.Num v) r.setups));
               ("counters", nums r.counters);
               ("extra", nums r.extra);
               ( "mismatches",
                 Json.List
                   (List.map (fun m -> Json.Str m)
                      (List.filteri (fun i _ -> i < 10) r.mismatches)) );
               ("mismatch_count", Json.Int (List.length r.mismatches));
             ]
            @ (if spans = [] then [] else [ ("layers", Json.Obj (layer_breakdown spans)) ])
            @ r.notes) );
      ]
  in
  print_endline (Json.to_string report);
  let correct = r.mismatches = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int (List.length r.mismatches));
            ("metrics", metric_json o.Driver.metrics);
          ]));
  exit (if correct then 0 else 1)
