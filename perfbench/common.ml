(* Shared plumbing of the workloads: the run context, the timed loop,
   best-of-passes, kernels and the cache-free references every output
   is checked against. *)

module Serve = Fstream_serve.Serve
module Compiler = Fstream_core.Compiler
module Thresholds = Fstream_core.Thresholds
module Engine = Fstream_runtime.Engine
module Run = Fstream_runtime.Run
module Report = Fstream_runtime.Report
module Filters = Fstream_runtime.Filters
module Graph_io = Fstream_workloads.Graph_io
module Lint = Fstream_analysis.Lint
module Sink = Fstream_obs.Sink
module Event = Fstream_obs.Event

type ctx = {
  seed : int;
  requests : int;
      (** requests a pass issues: a fixed amount of work, so that the
          request mix does not change with the host's speed *)
  tr : Trace.t;  (** enabled only in the traced pass *)
}

(* What a workload run hands back. *)
type run_result = {
  setups : float list;  (** seconds per set-up *)
  latencies : (string * float) list;
      (** request class and ms, per timed request in issue order *)
  elapsed : float;  (** seconds of the timed phase *)
  steps : float array;
      (** seconds of each step of the timed phase, from the end of the
          step before it: they add up to [elapsed] *)
  attempted : int;
  mismatches : string list;  (** outputs that differ from the reference *)
  heap_peak_words : int;
  extra : (string * float) list;  (** workload-specific metrics *)
  counters : (string * float) list;  (** must repeat exactly per seed *)
  notes : (string * Json.t) list;
}

(* Worker domains of the pool: the closed loop's control thread needs a
   core of its own, and with one worker the pool's dummy traffic
   repeats exactly. *)
let pool_width = 1

let now = Trace.now
let ms s = 1000. *. s
let traced ctx = Trace.enabled ctx.tr

let timed_setup setup =
  let t0 = now () in
  let st = setup () in
  ([ now () -. t0 ], st)

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

(* Issue requests [0 .. ctx.requests - 1]; returns the elapsed seconds,
   the seconds of each step and the peak major heap seen between
   requests. *)
let timed_loop ctx step =
  let t0 = now () in
  let last = ref t0 and steps = Array.make ctx.requests 0. in
  let peak = ref (heap_words ()) in
  for i = 0 to ctx.requests - 1 do
    step i;
    peak := max !peak (heap_words ());
    let t = now () in
    steps.(i) <- t -. !last;
    last := t
  done;
  (!last -. t0, steps, !peak)

let parse_graph text =
  match Graph_io.of_string text with
  | Ok g -> g
  | Error e -> failwith ("unparsable generated graph: " ^ e)

(* Node-seeded Bernoulli filters, the CLI's per-node kernels: a kernel's
   decisions depend only on its own firing history, so data and sink
   counts are schedule-independent and the pool can be checked against
   the sequential engine. *)
let kernels g ~kseed ~keep =
  Filters.for_graph g (fun v outs ->
      Filters.bernoulli (Random.State.make [| kseed; v |]) ~keep outs)

let mode = Serve.Non_propagation
let algorithm = Compiler.Non_propagation

(* The configurations the serving layer uses internally, for replays. *)
let compile_options backend =
  { Compiler.Options.default with fuse = false; backend }

let lint_config backend = { Lint.default_config with algorithm; backend }

let table_of_avoidance = function
  | Engine.Non_propagation t | Engine.Propagation t -> Some (Thresholds.to_array t)
  | Engine.No_avoidance -> None

(* Cache-free reference table: a fresh [Compiler.compile] of the graph
   under the same mode and backend. The benchmark remembers answers
   across the passes of a run (they replay the same inputs); the
   program under test never sees this memo. *)
let reference_tables = Hashtbl.create 1024

let reference_table ~backend g =
  let key = (Thresholds.graph_fingerprint g, backend) in
  match Hashtbl.find_opt reference_tables key with
  | Some r -> r
  | None ->
    let r =
      match Compiler.compile ~options:(compile_options backend) algorithm g with
      | Ok p -> Ok (Compiler.send_thresholds g p.Compiler.intervals)
      | Error e -> Error e
    in
    Hashtbl.add reference_tables key r;
    r

type table_check =
  | Same
  | Lp_alternative
      (** differs from the cache-free table, but only as another optimum
          of the same LP would: identical unbounded edges and the LP's
          own safety audit passes *)
  | Differs of string

(* A served table against the cache-free one. Where the LP takes part
   (backends Lp and Auto), an incremental re-solve is only promised
   to reach an optimum of equal objective (the simplex optimum need not
   be vertex-unique), so a different table is accepted when its
   unbounded edges match and [Lp.audit] certifies it; on the exact
   route tables must be equal. *)
let check_table ~backend g table =
  match (reference_table ~backend g, table) with
  | Error e, _ ->
    Differs ("the compiler refuses this topology: " ^ Compiler.error_to_string e)
  | Ok th, Some t when Thresholds.to_array th = t -> Same
  | Ok th, Some t ->
    let reference = Thresholds.to_array th in
    let same_inf =
      Array.length reference = Array.length t
      && Array.for_all2 (fun a b -> (a = None) = (b = None)) reference t
    in
    if backend <> Compiler.Exact && same_inf
       && Result.is_ok (Fstream_core.Lp.audit g ~thresholds:t)
    then Lp_alternative
    else
      let differ = ref 0 in
      Array.iteri (fun i a -> if i >= Array.length t || a <> t.(i) then incr differ) reference;
      Differs
        (Printf.sprintf "table differs from a cache-free compile on %d edge(s)"
           !differ)
  | Ok _, None -> Differs "no table"

(* Sequential reference run on the same kernels. *)
let reference_run g ~backend ~kseed ~keep ~inputs =
  match reference_table ~backend g with
  | Error e -> Error (Compiler.error_to_string e)
  | Ok th ->
    Ok
      (Run.exec
         (Run.sequential ~avoidance:(Engine.Non_propagation th) ())
         ~graph:g ~kernels:(kernels g ~kseed ~keep) ~inputs ())

let reference_runs = Hashtbl.create 256

let remembered_run g ~backend ~kseed ~keep ~inputs =
  let key = (Thresholds.graph_fingerprint g, backend, kseed, keep, inputs) in
  match Hashtbl.find_opt reference_runs key with
  | Some x -> x
  | None ->
    let x = reference_run g ~backend ~kseed ~keep ~inputs in
    Hashtbl.add reference_runs key x;
    x

(* Check a pool run's data and sink counts against a (remembered)
   sequential reference; returns a mismatch description. *)
let check_run g ~backend ~kseed ~keep ~inputs (r : Report.t) =
  let reference = remembered_run g ~backend ~kseed ~keep ~inputs in
  match reference with
  | Error e -> Some ("reference compile failed: " ^ e)
  | Ok ref_r ->
    if r.Report.outcome <> Report.Completed then
      Some (Format.asprintf "run ended %a" Report.pp_outcome r.Report.outcome)
    else if r.Report.data_messages <> ref_r.Report.data_messages
         || r.Report.sink_data <> ref_r.Report.sink_data
    then
      Some
        (Printf.sprintf "data/sink %d/%d, sequential reference %d/%d"
           r.Report.data_messages r.Report.sink_data ref_r.Report.data_messages
           ref_r.Report.sink_data)
    else None

(* A sink counting what the traced run reports about the pool. Called
   under the pool's monitor; read after [await]. *)
type pool_counts = { blocked : int Atomic.t; pushes : int Atomic.t }

let pool_counts () = { blocked = Atomic.make 0; pushes = Atomic.make 0 }

let counting_sink c =
  Sink.make (function
    | Event.Blocked _ -> Atomic.incr c.blocked
    | Event.Push { payload = Event.Data; _ } -> Atomic.incr c.pushes
    | _ -> ())

let stats_counters (s : Serve.stats) =
  [
    ("serve.tenants", float s.Serve.tenants);
    ("serve.rejections", float s.Serve.rejections);
    ("serve.compiles", float s.Serve.compiles);
    ("serve.recompiles", float s.Serve.recompiles);
    ("serve.warm_pivots", float s.Serve.warm_pivots);
  ]

let ratio a b = if b = 0. then 0. else a /. b

(* Passes over the same requests in a run. On a shared host the speed
   of a core flips between fast and slow within milliseconds, with a
   duty cycle that drifts over seconds, and a neighbour's burst can
   stall a request for tens of milliseconds. Replaying the first pass's
   requests [passes - 1] more times on fresh state, and keeping each
   request's fastest execution, measures the program rather than the
   neighbour. *)
let passes = 13

let min_float l = List.fold_left Float.min infinity l

(* Steps of the timed phase per segment. A segment is long enough to
   hold the work between requests and one period of a workload's
   request mix, and short enough to fit in one of the host's fast
   spells. *)
let segment = 10

(* The timed phase put together from each segment's fastest pass:
   [steps] holds every pass's step times, over the same requests. *)
let fastest_segments steps =
  let n = List.fold_left (fun m a -> min m (Array.length a)) max_int steps in
  let total = ref 0. in
  let i = ref 0 in
  while !i < n do
    let len = min segment (n - !i) in
    let seg a = Array.fold_left ( +. ) 0. (Array.sub a !i len) in
    total := !total +. min_float (List.map seg steps);
    i := !i + len
  done;
  !total

(* One result from passes over the same request lines: per request the
   fastest pass, the timed phase at each segment's fastest pass, every
   pass's set-up, attempts and outputs, and the first pass's counters —
   which every other pass must repeat exactly. *)
let best_of = function
  | [] -> invalid_arg "best_of"
  | p0 :: _ as ps ->
    let arrs = List.map (fun p -> Array.of_list p.latencies) ps in
    let n = List.fold_left (fun m a -> min m (Array.length a)) max_int arrs in
    let latencies =
      List.init n (fun i ->
          ( fst (List.hd arrs).(i),
            min_float (List.map (fun a -> snd a.(i)) arrs) ))
    in
    let differing =
      List.concat_map
        (fun p ->
          List.filter_map
            (fun (k, v) ->
              match List.assoc_opt k p0.counters with
              | Some v0 when v0 <> v ->
                Some
                  (Printf.sprintf "counter %s differs between passes: %.17g vs %.17g"
                     k v0 v)
              | _ -> None)
            p.counters)
        ps
    in
    let sum f = List.fold_left (fun a p -> a + f p) 0 ps in
    {
      p0 with
      setups = List.concat_map (fun p -> p.setups) ps;
      latencies;
      elapsed = fastest_segments (List.map (fun p -> p.steps) ps);
      attempted = sum (fun p -> p.attempted);
      mismatches = List.concat_map (fun p -> p.mismatches) ps @ differing;
      heap_peak_words =
        List.fold_left (fun m p -> min m p.heap_peak_words) max_int ps;
    }

let percentile_ms l p =
  match l with [] -> 0. | l -> Stats.percentile (Stats.sorted l) p

let p50 l = percentile_ms l 50.

let tail l = match l with [] -> 0. | l -> (Stats.tail (Stats.sorted l)).Stats.value

(* Durations, ms, of the traced spans with this name. *)
let span_ms spans name =
  List.filter_map
    (fun s -> if s.Trace.name = name then Some (ms (Trace.duration s)) else None)
    spans

let get h rid = Option.value ~default:0. (Hashtbl.find_opt h rid)
