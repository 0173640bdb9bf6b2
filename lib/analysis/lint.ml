open Fstream_graph
open Fstream_ladder
open Fstream_core
module Repair = Fstream_repair.Repair
module App_spec = Fstream_workloads.App_spec

type severity = Error | Warning | Info

let pp_severity ppf = function
  | Error -> Format.pp_print_string ppf "error"
  | Warning -> Format.pp_print_string ppf "warning"
  | Info -> Format.pp_print_string ppf "info"

type location =
  | Whole_graph
  | Node of Graph.node
  | Channel of int
  | Nodes of Graph.node list
  | Channels of int list

type fixit = Reroute of Repair.t | Scale_buffers of int

(* FS201's reroute is a whole repair and FS301's scale a whole
   compile, and admission reads severities only: a fixit is computed
   when it is first read. The cell is atomic, not a [Lazy.t], because a
   report may be read on another domain than the one that linted it;
   two first reads at once both compute the same value. *)
type fixit_state = Ready of fixit option | Pending of (unit -> fixit option)
type fixit_cell = fixit_state Atomic.t

type diagnostic = {
  code : string;
  severity : severity;
  location : location;
  message : string;
  witness : string list;
  fixit : fixit_cell;
}

let fixit d =
  match Atomic.get d.fixit with
  | Ready f -> f
  | Pending compute ->
    let f = compute () in
    Atomic.set d.fixit (Ready f);
    f

type rule = { id : string; title : string; default_severity : severity }

(* The registry. Codes are stable; new rules append within their band
   (FS1xx structure, FS2xx cycle/CS4, FS3xx capacities/intervals,
   FS4xx application specs). *)
let rules =
  [
    {
      id = "FS101";
      title = "topology has a directed cycle";
      default_severity = Error;
    };
    {
      id = "FS102";
      title = "topology is not connected";
      default_severity = Error;
    };
    {
      id = "FS103";
      title = "multiple sources or sinks";
      default_severity = Warning;
    };
    {
      id = "FS104";
      title = "node unreachable from every source, or unable to reach a sink";
      default_severity = Error;
    };
    {
      id = "FS201";
      title = "not CS4: a cycle has several sources (Theorem V.7 fails)";
      default_severity = Error;
    };
    {
      id = "FS202";
      title = "multi-source undirected cycle (exponential-route evidence)";
      default_severity = Warning;
    };
    {
      id = "FS203";
      title = "not series-parallel: reduction stalls (ladder/CS4 route in use)";
      default_severity = Info;
    };
    {
      id = "FS301";
      title = "buffer too small: dummy interval below 1";
      default_severity = Warning;
    };
    {
      id = "FS302";
      title = "threshold table inconsistent with computed intervals";
      default_severity = Error;
    };
    {
      id = "FS303";
      title = "Propagation budget erodes a tighter cycle (unsound avoidance)";
      default_severity = Error;
    };
    {
      id = "FS304";
      title = "parallel channels with asymmetric capacities";
      default_severity = Info;
    };
    {
      id = "FS305";
      title = "LP run-sum audit: threshold demand exceeds a branch buffer";
      default_severity = Warning;
    };
    {
      id = "FS401";
      title = "spec behaviour binds an unknown node or channel";
      default_severity = Error;
    };
    {
      id = "FS402";
      title = "spec filters at a split node under the Propagation table";
      default_severity = Error;
    };
    {
      id = "FS403";
      title = "conflicting spec behaviours for one node";
      default_severity = Warning;
    };
  ]

let rule id = List.find_opt (fun r -> r.id = id) rules

type config = {
  algorithm : Compiler.algorithm;
  backend : Compiler.backend;
  max_cycles : int;
  audit_thresholds : Thresholds.t option;
  spec : App_spec.t option;
}

let default_config =
  {
    algorithm = Compiler.Non_propagation;
    backend = Compiler.Exact;
    max_cycles = 200_000;
    audit_thresholds = None;
    spec = None;
  }

type report = { diagnostics : diagnostic list; incomplete : string option }

let count r sev =
  List.length (List.filter (fun d -> d.severity = sev) r.diagnostics)

(* ------------------------------------------------------------------ *)
(* Small helpers                                                        *)

let diag ?(witness = []) ?(fixit = Atomic.make (Ready None)) code location
    message =
  let severity =
    match rule code with
    | Some r -> r.default_severity
    | None -> invalid_arg (Printf.sprintf "Lint.diag: unknown rule %s" code)
  in
  { code; severity; location; message; witness; fixit }

let node_list_string nodes =
  String.concat ", " (List.map string_of_int nodes)

let truncated_nodes ?(keep = 8) nodes =
  let n = List.length nodes in
  if n <= keep then node_list_string nodes
  else
    Printf.sprintf "%s, ... (%d in all)"
      (node_list_string (List.filteri (fun i _ -> i < keep) nodes))
      n

let chan_string g id =
  let e = Graph.edge g id in
  Printf.sprintf "e%d (%d->%d)" id e.Graph.src e.Graph.dst

(* One directed cycle of a non-DAG, as a vertex list, via DFS back edge. *)
let directed_cycle g =
  let n = Graph.num_nodes g in
  let color = Array.make n 0 in
  let parent = Array.make n (-1) in
  let found = ref None in
  let rec dfs v =
    color.(v) <- 1;
    List.iter
      (fun (e : Graph.edge) ->
        if !found = None then
          if color.(e.dst) = 0 then begin
            parent.(e.dst) <- v;
            dfs e.dst
          end
          else if color.(e.dst) = 1 then begin
            let rec collect u acc =
              if u = e.dst then e.dst :: acc else collect parent.(u) (u :: acc)
            in
            found := Some (collect v [])
          end)
      (Graph.out_edges g v);
    color.(v) <- 2
  in
  let v = ref 0 in
  while !found = None && !v < n do
    if color.(!v) = 0 then dfs !v;
    incr v
  done;
  !found

(* Undirected connected components, as sorted node lists, in the order
   of their smallest nodes. One walk from every node in turn labels each
   node as it is reached: one reached from a neighbour joins that
   neighbour's component, and one with no labelled neighbour, where a
   new walk starts, opens the next component. *)
let components g =
  let n = Graph.num_nodes g in
  let comp = Array.make n (-1) and count = ref 0 in
  let label v =
    let ws = Topo.neighbours g v in
    (match List.find_opt (fun w -> comp.(w) >= 0) ws with
    | Some w -> comp.(v) <- comp.(w)
    | None ->
      comp.(v) <- !count;
      incr count);
    ws
  in
  ignore (Topo.search g (List.init n Fun.id) label);
  let buckets = Array.make !count [] in
  for v = n - 1 downto 0 do
    buckets.(comp.(v)) <- v :: buckets.(comp.(v))
  done;
  Array.to_list buckets

let cycle_channel_ids c =
  List.map (fun (o : Cycles.oriented) -> o.Cycles.edge.Graph.id) c

(* ------------------------------------------------------------------ *)
(* Analysis context shared by the rules                                 *)

type ctx = {
  g : Graph.t;
  cfg : config;
  dag : bool;
  connected : bool;
  classification : (Cs4.t, Cs4.failure) result option;
  plan : (Compiler.plan, Compiler.error) result option;
  mutable incomplete : string option;
}

(* One analysis per graph: the plan is the caller's when given (lint
   compiles otherwise), and the CS4 decomposition is the plan's when it
   carries one. The compile checks acyclicity, then connectivity, and
   anything but those two errors proves a connected DAG, so lint checks
   neither again. No cycle is enumerated here: the rules that need
   cycles search for them themselves, each under the budget, and only a
   search that leaves its rule undecided marks the report incomplete. *)
let make_ctx ?plan cfg g =
  let plan =
    match plan with
    | Some p -> p
    | None ->
      let options =
        {
          Compiler.Options.default with
          max_cycles = cfg.max_cycles;
          backend = cfg.backend;
        }
      in
      Compiler.compile ~options cfg.algorithm g
  in
  let dag, connected =
    match plan with
    | Stdlib.Error Compiler.Not_a_dag -> (false, Topo.connected g)
    | Stdlib.Error Compiler.Disconnected -> (true, false)
    | _ -> (true, true)
  in
  let plan = if dag && connected then Some plan else None in
  let classification =
    match plan with
    | Some
        (Ok
          { route = Cs4_route cls | Min_route { exact = Cs4_route cls; _ }; _ })
      ->
      Some (Ok cls)
    | Some (Stdlib.Error (Compiler.Non_cs4_rejected failure)) ->
      Some (Stdlib.Error failure)
    | Some _ when Topo.dag_terminals g <> None -> Some (Cs4.classify g)
    | _ -> None
  in
  { g; cfg; dag; connected; classification; plan; incomplete = None }

(* The first skipped rule names itself. *)
let mark_incomplete ctx what =
  if ctx.incomplete = None then ctx.incomplete <- Some what

(* ------------------------------------------------------------------ *)
(* FS1xx: structure                                                     *)

let rule_fs101 ctx =
  if ctx.dag then []
  else
    let witness, loc =
      match directed_cycle ctx.g with
      | Some vs ->
        ( [
            Printf.sprintf "directed cycle: %s -> %s"
              (String.concat " -> " (List.map string_of_int vs))
              (string_of_int (List.hd vs));
          ],
          Nodes vs )
      | None -> ([], Whole_graph)
    in
    [
      diag ~witness "FS101" loc
        "the topology has a directed cycle: streams cannot be scheduled \
         and no interval table exists";
    ]

let rule_fs102 ctx =
  if ctx.connected then []
  else
    (* a disconnected graph has at least two components *)
    let comps = components ctx.g in
    let smallest =
      List.fold_left
        (fun b c -> if List.length c < List.length b then c else b)
        (List.hd comps) comps
    in
    let witness =
      Printf.sprintf "%d components; smallest is {%s}" (List.length comps)
        (truncated_nodes smallest)
    in
    [
      diag ~witness:[ witness ] "FS102" (Nodes smallest)
        "the topology is not connected: isolated parts cannot exchange \
         sequence numbers and the interval algorithms reject it";
    ]

let rule_fs103 ctx =
  if not ctx.dag then []
  else
    let sources = Graph.sources ctx.g and sinks = Graph.sinks ctx.g in
    let one what nodes =
      if List.length nodes <= 1 then []
      else
        [
          diag "FS103" (Nodes nodes)
            (Printf.sprintf
               "%d %ss (nodes %s): the polynomial SP/CS4 algorithms need a \
                two-terminal DAG; only the exponential general route applies"
               (List.length nodes) what (node_list_string nodes));
        ]
    in
    one "source" sources @ one "sink" sinks

let rule_fs104 ctx =
  if ctx.dag then []
  else
    let g = ctx.g in
    let missing mark =
      List.filter (fun v -> not mark.(v)) (List.init (Graph.num_nodes g) Fun.id)
    in
    let one roots next what consequence =
      match missing (Topo.search g roots (next g)) with
      | [] -> []
      | nodes ->
        [
          diag "FS104" (Nodes nodes)
            (Printf.sprintf "node(s) %s %s: they can never %s"
               (truncated_nodes nodes) what consequence);
        ]
    in
    one (Graph.sources g) Topo.successors "are unreachable from every source"
      "fire"
    @ one (Graph.sinks g) Topo.predecessors "cannot reach any sink" "drain"

(* ------------------------------------------------------------------ *)
(* FS2xx: cycle structure                                               *)

(* A bad block proves a multi-source cycle in that block (Theorem V.7):
   the classification decides FS201 and FS202, and cycles are only
   their witnesses. One search of that block alone, stopped at the
   fifth, serves both: FS201 cites the first, FS202 lists them all, and
   a budget that runs out there still leaves both findings, at the
   block's endpoints. A CS4 graph has none. Without a classification
   nothing is known in advance: FS202 searches the whole graph, and a
   budget that runs out before any witness leaves the rule undecided. *)
let rule_fs201 ctx ~block_source ~block_sink ~reason witness_cycle =
  let witness =
    match witness_cycle with
    | Some c ->
      [
        Printf.sprintf "witness cycle through nodes {%s}"
          (node_list_string (List.sort_uniq compare (Cycles.vertices c)));
        Printf.sprintf "cycle sources {%s}, sinks {%s}"
          (node_list_string (Cycles.cycle_sources c))
          (node_list_string (Cycles.cycle_sinks c));
      ]
    | None -> []
  in
  let reroute () =
    match Repair.repair ~max_cycles:ctx.cfg.max_cycles ctx.g with
    | Ok r when r.Repair.reroutes <> [] -> Some (Reroute r)
    | _ -> None
  in
  let loc =
    match witness_cycle with
    | Some c -> Channels (cycle_channel_ids c)
    | None -> Nodes [ block_source; block_sink ]
  in
  (* under the LP backend a non-CS4 topology is first-class: the
     polynomial LP encoding replaces the exponential fallback,
     so the finding informs (conservative table) instead of failing
     admission *)
  let severity, consequence =
    match ctx.cfg.backend with
    | Compiler.Lp ->
      ( Warning,
        "the LP backend computes a conservative interval table in \
         polynomial time" )
    | Compiler.Exact | Compiler.Auto ->
      ( Error,
        "interval computation falls back to the exponential general route" )
  in
  {
    (diag ~witness ~fixit:(Atomic.make (Pending reroute)) "FS201" loc
       (Printf.sprintf
          "not CS4: block %d..%d is neither SP nor an SP-ladder (%s); %s"
          block_source block_sink reason consequence))
    with
    severity;
  }

let rule_fs202 scope cycles =
  let k = List.length cycles in
  List.mapi
    (fun i c ->
      let srcs = Cycles.cycle_sources c and sinks = Cycles.cycle_sinks c in
      diag "FS202"
        (Channels (cycle_channel_ids c))
        (Printf.sprintf
           "multi-source cycle %d (first %d found in %s): %d sources {%s}, \
            %d sinks {%s} — each such cycle multiplies the general route's \
            work"
           (i + 1) k scope (List.length srcs) (node_list_string srcs)
           (List.length sinks) (node_list_string sinks)))
    cycles

let rule_fs201_fs202 ctx =
  let keep = 5 and max_cycles = ctx.cfg.max_cycles in
  match ctx.classification with
  | Some (Ok _) -> []
  | Some
      (Stdlib.Error
        (Cs4.Bad_block { block_source; block_sink; block_ids; reason })) ->
    let scope = Printf.sprintf "block %d..%d" block_source block_sink in
    let cycles, _ =
      Cs4.block_witnesses ~max_cycles ctx.g ~block_ids ~limit:keep
    in
    rule_fs201 ctx ~block_source ~block_sink ~reason (List.nth_opt cycles 0)
    ::
    (if cycles <> [] then rule_fs202 scope cycles
     else
       [
         diag "FS202"
           (Nodes [ block_source; block_sink ])
           (Printf.sprintf
              "multi-source cycles in %s: none found within the search \
               budget of %d cycles — each such cycle multiplies the general \
               route's work"
              scope max_cycles);
       ])
  | _ when not ctx.dag -> []
  | _ -> (
    match
      Cycles.search ~max_cycles ctx.g ~limit:keep (fun c ->
          not (Cycles.is_cs4_cycle c))
    with
    | [], true ->
      mark_incomplete ctx
        (Printf.sprintf
           "the cycle search exceeded the budget of %d simple cycles before \
            a multi-source cycle was found; FS202 was skipped"
           max_cycles);
      []
    | cycles, _ -> rule_fs202 "the graph" cycles)

(* The whole-graph series/parallel reduction stalls exactly when a
   ladder block exists (a serial composition of SP blocks is SP), and
   the blocks give its count: each maximal run of consecutive SP blocks
   collapses to one super-edge, and each ladder keeps its core, whose
   rails never series-merge at its terminals. *)
let rule_fs203 ctx =
  let rec stalled ~after_sp n = function
    | [] -> n
    | (_, _, Cs4.Ladder_block l) :: rest ->
      stalled ~after_sp:false (n + Ladder.core_edges l) rest
    | (_, _, Cs4.Sp_block _) :: rest ->
      stalled ~after_sp:true (if after_sp then n else n + 1) rest
  in
  match ctx.classification with
  | Some (Ok cls)
    when List.exists
           (function _, _, Cs4.Ladder_block _ -> true | _ -> false)
           cls.Cs4.blocks ->
    [
      diag "FS203" Whole_graph
        (Printf.sprintf
           "not series-parallel: the series/parallel reduction stalls with \
            %d super-edges; the ladder/CS4 algorithms are in use \
            (polynomial, not linear)"
           (stalled ~after_sp:false 0 cls.Cs4.blocks));
    ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* FS3xx: capacities, intervals, thresholds                             *)

let rule_fs301 ctx =
  match ctx.plan with
  | Some (Ok p) ->
    let offenders =
      Graph.fold_edges ctx.g ~init:[] ~f:(fun acc e ->
          let i = p.Compiler.intervals.(e.Graph.id) in
          if Interval.is_finite i && Interval.floor_opt i = Some 0 then
            (e.Graph.id, i) :: acc
          else acc)
      |> List.rev
    in
    if offenders = [] then []
    else
      (* A CS4-route plan of the audited algorithm already holds the
         table the cold sizing compile (Exact, no general fallback)
         would compute; any other route sizes on that compile. Like
         FS201's reroute, the scale is computed on the first read, once
         for all the offenders, which share the cell. *)
      let scale () =
        match
          match p.Compiler.route with
          | Compiler.Cs4_route _ when p.algorithm = ctx.cfg.algorithm ->
            Sizing.scale_of_intervals p.intervals ~target:1
          | _ -> Sizing.min_uniform_scale ctx.g ctx.cfg.algorithm ~target:1
        with
        | Ok c when c > 1 -> Some (Scale_buffers c)
        | _ -> None
      in
      let fixit = Atomic.make (Pending scale) in
      List.map
        (fun (id, i) ->
          diag
            ~witness:
              [
                Printf.sprintf "interval %s < 1 on channel %s"
                  (Format.asprintf "%a" Interval.pp i)
                  (chan_string ctx.g id);
              ]
            ~fixit "FS301" (Channel id)
            (Printf.sprintf
               "buffer too small on channel %s: the dummy interval is below \
                1, so the runtime clamps to a dummy every sequence number \
                (SDF-degenerate avoidance)"
               (chan_string ctx.g id)))
        offenders
  | _ -> []

let rule_fs302 ctx =
  match (ctx.cfg.audit_thresholds, ctx.plan) with
  | Some t, _ when not (Thresholds.compatible t ctx.g) ->
    [
      diag "FS302" Whole_graph
        "the supplied threshold table was computed for a different \
         topology (fingerprint mismatch); the engines will refuse it";
    ]
  | Some t, Some (Ok p) ->
    Graph.fold_edges ctx.g ~init:[] ~f:(fun acc e ->
        let id = e.Graph.id in
        let sound = Interval.threshold p.Compiler.intervals.(id) in
        match (Thresholds.get t id, sound) with
        | None, Some k ->
          diag
            ~witness:
              [
                Printf.sprintf
                  "computed interval %s requires a threshold of at most %d"
                  (Format.asprintf "%a" Interval.pp
                     p.Compiler.intervals.(id))
                  k;
              ]
            "FS302" (Channel id)
            (Printf.sprintf
               "channel %s has a finite dummy interval but the supplied \
                table never sends dummies on it — a filtered stream can \
                starve its consumer forever"
               (chan_string ctx.g id))
          :: acc
        | Some supplied, Some k when supplied > k ->
          diag
            ~witness:
              [
                Printf.sprintf "supplied threshold %d > sound bound %d"
                  supplied k;
              ]
            "FS302" (Channel id)
            (Printf.sprintf
               "threshold on channel %s is later than the computed \
                interval allows: dummies arrive after the opposing buffer \
                can already be full"
               (chan_string ctx.g id))
          :: acc
        | _ -> acc)
    |> List.rev
  | _ -> []

(* FS303: the budget-erosion hazard of the paper-literal Propagation
   table (DESIGN.md, deviation 3). Under unrestricted filtering,
   soundness is a per-run budget: at a wedge every node along a run can
   sit one sequence number below its origination threshold without
   owing anything, so the run is guaranteed to free the opposing
   buffers only when the sum of (threshold - 1) over its edges stays
   within opposing capacity - 1. The paper table satisfies this when
   every non-head run edge is an eager relay (threshold 1) — the budget
   sits whole at the head; it breaks when an edge mid-run on one cycle
   is simultaneously the head of another cycle that grants it a looser
   budget, eroding the tighter cycle (the 4-node erosion counterexample
   is the canonical instance, and parallel-edge multigraphs hit the
   same hazard with no erosion "split" in sight). We check the
   discipline directly on every cycle, folded as the enumeration finds
   it; each violated run is a machine-checkable unsoundness witness. *)
let rule_fs303 ctx =
  match (ctx.cfg.algorithm, ctx.plan) with
  | Compiler.Propagation, Some (Ok p) -> (
    let thr = Compiler.propagation_thresholds ctx.g p.Compiler.intervals in
    let flagged = Hashtbl.create 8 in
    let acc = ref [] in
    let emit d id =
      if not (Hashtbl.mem flagged id) then begin
        Hashtbl.add flagged id ();
        acc := d :: !acc
      end
    in
    let check () c =
      let runs = Cycles.runs c in
      let opposite = Cycles.opposite_run c in
      let cycle_nodes () =
        node_list_string (List.sort_uniq compare (Cycles.vertices c))
      in
      Array.iteri
        (fun i r ->
          let l = Cycles.run_caps runs.(opposite.(i)) in
          (* worst-case run lag before any origination must fire;
             None means the table never catches up at all *)
          let lag =
            List.fold_left
              (fun acc (e : Graph.edge) ->
                match (acc, Thresholds.get thr e.Graph.id) with
                | Some s, Some k -> Some (s + k - 1)
                | _ -> None)
              (Some 0) r.Cycles.run_edges
          in
          match lag with
          | None ->
            List.iter
              (fun (e : Graph.edge) ->
                if Thresholds.get thr e.Graph.id = None then
                  emit
                    (diag
                       ~witness:
                         [
                           Printf.sprintf
                             "on the cycle through nodes {%s}"
                             (cycle_nodes ());
                         ]
                       "FS303" (Channel e.Graph.id)
                       (Printf.sprintf
                          "channel %s lies on a cycle but the Propagation \
                           table never originates dummies on it"
                          (chan_string ctx.g e.Graph.id)))
                    e.Graph.id)
              r.Cycles.run_edges
          | Some lag when lag > l - 1 ->
            (* anchor the finding on the loosest budget in the run:
               that is the entry granted by some other cycle *)
            let anchor =
              List.fold_left
                (fun best (e : Graph.edge) ->
                  let k =
                    Option.value ~default:0
                      (Thresholds.get thr e.Graph.id)
                  in
                  match best with
                  | Some (k', _) when k' >= k -> best
                  | _ -> Some (k, e.Graph.id))
                None r.Cycles.run_edges
            in
            Option.iter
              (fun (k, id) ->
                emit
                  (diag
                     ~witness:
                       [
                         Printf.sprintf
                           "run {%s} lags up to %d while the opposing \
                            side holds only %d"
                           (String.concat ", "
                              (List.map
                                 (fun (e : Graph.edge) ->
                                   Printf.sprintf "%s:[%s]"
                                     (chan_string ctx.g e.Graph.id)
                                     (match
                                        Thresholds.get thr e.Graph.id
                                      with
                                     | Some k -> string_of_int k
                                     | None -> "inf"))
                                 r.Cycles.run_edges))
                           lag l;
                         Printf.sprintf "on the cycle through nodes {%s}"
                           (cycle_nodes ());
                       ]
                     "FS303" (Channel id)
                     (Printf.sprintf
                        "the Propagation budget %d on channel %s erodes a \
                         tighter cycle: its run may legally lag %d \
                         sequence numbers where %d already wedges (use \
                         non-propagation thresholds or eager relays)"
                        k (chan_string ctx.g id) lag l))
                  id)
              anchor
          | Some _ -> ())
        runs
    in
    match
      Cycles.fold ~max_cycles:ctx.cfg.max_cycles ctx.g ~init:() ~f:check
    with
    | () -> List.rev !acc
    | exception Cycles.Budget_exceeded _ ->
      mark_incomplete ctx
        (Printf.sprintf
           "cycle enumeration exceeded the budget of %d simple cycles; \
            FS303 was skipped"
           ctx.cfg.max_cycles);
      [])
  | _ -> []

let rule_fs304 ctx =
  let seen = Hashtbl.create 16 in
  Graph.fold_edges ctx.g ~init:[] ~f:(fun acc e ->
      let key = (e.Graph.src, e.Graph.dst) in
      if Hashtbl.mem seen key then acc
      else begin
        Hashtbl.add seen key ();
        let group = e :: Graph.parallel_edges ctx.g e in
        let caps =
          List.sort_uniq compare (List.map (fun e -> e.Graph.cap) group)
        in
        if List.length group >= 2 && List.length caps >= 2 then
          diag
            ~witness:
              [
                Printf.sprintf "capacities {%s} between nodes %d and %d"
                  (String.concat ", " (List.map string_of_int caps))
                  e.Graph.src e.Graph.dst;
              ]
            "FS304"
            (Channels
               (List.sort compare (List.map (fun e -> e.Graph.id) group)))
            (Printf.sprintf
               "parallel channels %d->%d have asymmetric capacities: their \
                pair cycle's interval is limited by the smaller buffer, so \
                the extra capacity buys nothing"
               e.Graph.src e.Graph.dst)
          :: acc
        else acc
      end)
  |> List.rev

(* FS305: the LP backend's run-sum audit of a supplied threshold
   table, reporting the witness {!Lp.audit} picks. The discipline is
   sufficient, not necessary, so a violation is a Warning: the table
   may still be safe, but it no longer carries the polynomial
   certificate the LP backend relies on. Gated on [backend = Lp] so the
   default lint output (and the cram suite) is byte-identical to the
   exact route. *)
let rule_fs305 ctx =
  match (ctx.cfg.backend, ctx.cfg.audit_thresholds) with
  | Compiler.Lp, Some t when Thresholds.compatible t ctx.g && ctx.dag -> (
    let thresholds =
      Array.init (Graph.num_edges ctx.g) (fun id -> Thresholds.get t id)
    in
    match Lp.audit ctx.g ~thresholds with
    | Ok () -> []
    | Stdlib.Error w ->
      [
        diag
          ~witness:
            [
              Printf.sprintf
                "branch node %d: worst chain demand %d > out-buffer slack %d"
                w.Lp.wnode w.Lp.wdemand w.Lp.wsupply;
              Printf.sprintf "demand chain: %s"
                (String.concat " -> "
                   (List.map
                      (fun (e : Graph.edge) -> chan_string ctx.g e.Graph.id)
                      w.Lp.wedges));
            ]
          "FS305" (Node w.Lp.wnode)
          (Printf.sprintf
             "the supplied thresholds break the LP run-sum discipline at \
              branch node %d: a run out of it may legally lag %d sequence \
              numbers while its smallest out-buffer frees only %d"
             w.Lp.wnode w.Lp.wdemand w.Lp.wsupply);
      ])
  | _ -> []

(* ------------------------------------------------------------------ *)
(* FS4xx: application specs                                             *)

let is_filtering = function
  | App_spec.Passthrough -> false
  | App_spec.Bernoulli p -> p < 1.0
  | App_spec.Periodic k -> k > 1
  | App_spec.Drop | App_spec.Route_one | App_spec.Block _ -> true

let rule_fs401 ctx =
  match ctx.cfg.spec with
  | None -> []
  | Some spec ->
    List.filter_map
      (fun (v, b) ->
        let bad_node = v < 0 || v >= Graph.num_nodes ctx.g in
        let bad_edge =
          (not bad_node)
          &&
          match b with
          | App_spec.Block e ->
            not
              (List.exists
                 (fun (edge : Graph.edge) -> edge.Graph.id = e)
                 (Graph.out_edges ctx.g v))
          | _ -> false
        in
        if bad_node then
          Some
            (diag "FS401" Whole_graph
               (Printf.sprintf
                  "spec behaviour '%s' is bound to node %d, which does not \
                   exist (topology has %d nodes)"
                  (Format.asprintf "%a" App_spec.pp_behavior b)
                  v (Graph.num_nodes ctx.g)))
        else if bad_edge then
          Some
            (diag "FS401" (Node v)
               (Printf.sprintf
                  "spec behaviour '%s' on node %d names a channel that is \
                   not one of the node's out-channels"
                  (Format.asprintf "%a" App_spec.pp_behavior b)
                  v))
        else None)
      spec.App_spec.behaviors

let rule_fs402 ctx =
  match (ctx.cfg.algorithm, ctx.cfg.spec) with
  | Compiler.Propagation, Some spec ->
    let splitter v =
      Graph.in_degree ctx.g v > 0 && Graph.out_degree ctx.g v >= 2
    in
    let listed = List.map fst spec.App_spec.behaviors in
    let explicit =
      List.filter_map
        (fun (v, b) ->
          if
            v >= 0
            && v < Graph.num_nodes ctx.g
            && is_filtering b && splitter v
          then
            Some
              (diag "FS402" (Node v)
                 (Printf.sprintf
                    "spec filters ('%s') at split node %d: the Propagation \
                     table is only sound when filtering sits at sources \
                     and pure relays (DESIGN.md deviation 3)"
                    (Format.asprintf "%a" App_spec.pp_behavior b)
                    v))
          else None)
        spec.App_spec.behaviors
    in
    let defaulted =
      if not (is_filtering spec.App_spec.default) then []
      else
        let nodes =
          List.filter
            (fun v -> splitter v && not (List.mem v listed))
            (List.init (Graph.num_nodes ctx.g) Fun.id)
        in
        if nodes = [] then []
        else
          [
            diag "FS402" (Nodes nodes)
              (Printf.sprintf
                 "the spec's default behaviour ('%s') filters, and split \
                  node(s) %s fall through to it: the Propagation table is \
                  only sound when filtering sits at sources and pure relays"
                 (Format.asprintf "%a" App_spec.pp_behavior
                    spec.App_spec.default)
                 (truncated_nodes nodes));
          ]
    in
    explicit @ defaulted
  | _ -> []

let rule_fs403 ctx =
  match ctx.cfg.spec with
  | None -> []
  | Some spec ->
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun (v, b) ->
        match Hashtbl.find_opt seen v with
        | None ->
          Hashtbl.add seen v b;
          None
        | Some first ->
          Some
            (diag "FS403" (Node v)
               (Printf.sprintf
                  "node %d has several behaviour directives; the first \
                   ('%s') wins and '%s' is silently ignored"
                  v
                  (Format.asprintf "%a" App_spec.pp_behavior first)
                  (Format.asprintf "%a" App_spec.pp_behavior b))))
      spec.App_spec.behaviors

(* ------------------------------------------------------------------ *)

let location_key = function
  | Whole_graph -> (0, [])
  | Node v -> (1, [ v ])
  | Channel e -> (2, [ e ])
  | Nodes l -> (3, l)
  | Channels l -> (4, l)

let run_ctx ctx =
  let diagnostics =
    List.concat
      [
        rule_fs101 ctx;
        rule_fs102 ctx;
        rule_fs103 ctx;
        rule_fs104 ctx;
        rule_fs201_fs202 ctx;
        rule_fs203 ctx;
        rule_fs301 ctx;
        rule_fs302 ctx;
        rule_fs303 ctx;
        rule_fs304 ctx;
        rule_fs305 ctx;
        rule_fs401 ctx;
        rule_fs402 ctx;
        rule_fs403 ctx;
      ]
  in
  let diagnostics =
    let key d = (d.code, location_key d.location, d.message) in
    List.stable_sort (fun a b -> compare (key a) (key b)) diagnostics
  in
  let incomplete =
    match (ctx.incomplete, ctx.plan) with
    | None, Some (Stdlib.Error (Compiler.Cycle_budget_exceeded n)) ->
      Some
        (Printf.sprintf
           "interval computation gave up after %d enumerated cycles; \
            interval rules (FS3xx) were skipped"
           n)
    | i, _ -> i
  in
  { diagnostics; incomplete }

let run ?(config = default_config) ?plan g = run_ctx (make_ctx ?plan config g)

let apply_fixes g report =
  let reroute =
    List.find_map
      (fun d -> match fixit d with Some (Reroute r) -> Some r | _ -> None)
      report.diagnostics
  in
  let scale =
    List.fold_left
      (fun acc d ->
        match fixit d with
        | Some (Scale_buffers c) -> max acc c
        | _ -> acc)
      1 report.diagnostics
  in
  if reroute = None && scale = 1 then
    Stdlib.Error "no finding carries an applicable fixit"
  else begin
    let g, actions =
      match reroute with
      | Some r ->
        ( r.Repair.graph,
          [
            Printf.sprintf
              "rerouted %d channel(s) through relays (%d added) to reach CS4"
              r.Repair.deleted_edges r.Repair.added_edges;
          ] )
      | None -> (g, [])
    in
    if scale = 1 then Ok (g, actions)
    else
      Result.map
        (fun g ->
          ( g,
            actions
            @ [
                Printf.sprintf
                  "scaled every buffer capacity by x%d to lift all dummy \
                   intervals to >= 1"
                  scale;
              ] ))
        (Sizing.scale_caps g scale)
  end
