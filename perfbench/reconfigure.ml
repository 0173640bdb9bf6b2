(* reconfigure: CS4-chain and layered-dense tenants alternate runs with
   edit scripts. Idle edits time validate + lint + recompile + swap;
   mid-run edits also wait for the drain. *)

open Fstream_graph
open Common
module Lp = Fstream_core.Lp

(* Counts of the calls the traced pass replays. *)
type replay_counts = {
  mutable cycles : int;
  mutable incomplete : int;
  mutable route_cs4 : int;
  mutable route_general : int;
  mutable route_lp : int;
  mutable route_min : int;
  mutable lp_rows : int;
  mutable lp_pivots : int;
}

let rec count_route c = function
  | Compiler.Cs4_route _ -> c.route_cs4 <- c.route_cs4 + 1
  | Compiler.General_route _ -> c.route_general <- c.route_general + 1
  | Compiler.Lp_route _ -> c.route_lp <- c.route_lp + 1
  | Compiler.Min_route { exact; lp } ->
    c.route_min <- c.route_min + 1;
    count_route c exact;
    count_route c lp

(* The server's verdict on a topology it must refuse, checked against
   FS201 (CS4 violation); [None] when refused as expected. *)
let check_refused srv text =
  let backend = Option.value ~default:Compiler.Auto (Inputs.header_backend text) in
  match Serve.admit srv ~backend ~mode (parse_graph text) with
  | Error (Serve.Lint_rejected ds)
    when List.exists (fun (d : Lint.diagnostic) -> d.Lint.code = "FS201") ds ->
    None
  | Error r -> Some (Format.asprintf "refused, but not by FS201: %a" Serve.pp_rejection r)
  | Ok _ -> Some "a non-CS4 topology was admitted under Exact"

type tenant = {
  s : Serve.session;
  spec : Inputs.tenant;
  backend : Compiler.backend;
  shadow : Compiler.cache;  (** replays [recompile] in the traced run *)
}

type request =
  | Run of int * int
  | Edit of int * string
  | Edit_mid of int * int * string

let parse_request line =
  match String.index_opt line ' ' with
  | None -> failwith ("bad request: " ^ line)
  | Some i -> (
    let rest = String.sub line (i + 1) (String.length line - i - 1) in
    match String.sub line 0 i with
    | "run" -> Scanf.sscanf rest "%d %d" (fun t k -> Run (t, k))
    | "edit" -> Scanf.sscanf rest "%d %[^\n]" (fun t s -> Edit (t, s))
    | "edit-mid" -> Scanf.sscanf rest "%d %d %[^\n]" (fun t k s -> Edit_mid (t, k, s))
    | _ -> failwith ("bad request: " ^ line))

type checked_run = { graph : Graph.t; tenant : int; kseed : int; report : Report.t }

let run ctx =
  let specs = Inputs.reconf_tenants () in
  let count = ctx.requests in
  let setup () =
    let reqs = Inputs.reconf_requests ~seed:ctx.seed ~count in
    let srv =
      Serve.create ~domains:pool_width
        ~options:(compile_options Compiler.Auto) ()
    in
    let tenants =
      Array.map
        (fun (spec : Inputs.tenant) ->
          let backend =
            Option.value ~default:Compiler.Auto (Inputs.header_backend spec.Inputs.text)
          in
          let g = parse_graph spec.Inputs.text in
          let shadow = Compiler.cache_create () in
          ignore (Compiler.compile_cached ~options:(compile_options backend) shadow algorithm g);
          match Serve.admit srv ~name:spec.Inputs.tname ~backend ~mode g with
          | Ok s ->
            ignore
              (Serve.run srv ~kernels:(kernels g ~kseed:0 ~keep:spec.Inputs.keep)
                 ~inputs:spec.Inputs.inputs s);
            { s; spec; backend; shadow }
          | Error r ->
            failwith
              (Format.asprintf "tenant %s refused: %a" spec.Inputs.tname
                 Serve.pp_rejection r))
        specs
    in
    let refusal = check_refused srv (Inputs.reconf_refused ()) in
    (srv, tenants, reqs, refusal)
  in
  let setups, (srv, tenants, reqs, refusal) = timed_setup setup in
  let tr = ctx.tr in
  (* fingerprints the registry holds, to replay only what serve does *)
  let known = Hashtbl.create 256 in
  Array.iter
    (fun t ->
      Hashtbl.replace known (Thresholds.graph_fingerprint (Serve.graph t.s), t.backend) ())
    tenants;
  let pc = pool_counts () in
  let sink = if traced ctx then Some (counting_sink pc) else None in
  let latencies = ref [] and reconfig_idle = ref [] and reconfig_mid = ref [] in
  let runs = ref [] and tables = ref [] and mismatches = ref [] in
  let spliced = ref 0 and recomputed = ref 0 and hits = ref 0 in
  let edits = ref 0 and mid_rids = Hashtbl.create 64 in
  let c =
    { cycles = 0; incomplete = 0; route_cs4 = 0; route_general = 0;
      route_lp = 0; route_min = 0; lp_rows = 0; lp_pivots = 0 }
  in
  let start_run i t kseed =
    let x = tenants.(t) in
    let g = Serve.graph x.s in
    let id = Trace.fresh_id tr and t0 = now () in
    Serve.start srv ?sink
      ~kernels:(kernels g ~kseed ~keep:x.spec.Inputs.keep)
      ~inputs:x.spec.Inputs.inputs x.s;
    (i, id, t0, now (), g, t, kseed)
  in
  let finish_run (i, id, t0, t1, g, t, kseed) =
    let report = Serve.await tenants.(t).s in
    let t2 = now () in
    Trace.record tr ~id ~name:"request" ~start:t0 ~stop:t2 ~parent:(-1) ~rid:i;
    Trace.record tr ~id:(Trace.fresh_id tr) ~name:"serve.start" ~start:t0
      ~stop:t1 ~parent:id ~rid:i;
    Trace.record tr ~id:(Trace.fresh_id tr) ~name:"parallel_engine.run"
      ~start:t1 ~stop:t2 ~parent:id ~rid:i;
    latencies := ("run", ms (t2 -. t0)) :: !latencies;
    runs := { graph = g; tenant = t; kseed; report } :: !runs
  in
  (* rid of an edit request: offset so it never collides with a run's *)
  let edit_rid i = count + i in
  let edit ~mid i t script =
    let x = tenants.(t) in
    let t0 = now () in
    let result, call =
      Trace.span ~rid:(edit_rid i) tr "request" (fun () ->
          let ops =
            match Trace.span tr "edit.parse" (fun () -> Edit.parse_ops script) with
            | Ok ops -> ops
            | Error e -> failwith ("generated edit script unparsable: " ^ e)
          in
          let base = Serve.graph x.s in
          let c0 = now () in
          let result =
            Trace.span tr "serve.reconfigure" (fun () -> Serve.reconfigure srv x.s ops)
          in
          let call = ms (now () -. c0) in
          (* the calls serve.reconfigure made, repeated on its input; a
             topology the server knows hits its lint and registry
             caches, so only new ones are linted and recompiled *)
          if traced ctx then begin
            let replay name f = Trace.span ~replay_of:"serve.reconfigure" tr name f in
            match replay "edit.apply" (fun () -> Edit.apply base ops) with
            | Error _ -> ()
            | Ok delta ->
              let g = delta.Edit.graph in
              if not (Hashtbl.mem known (Thresholds.graph_fingerprint g, x.backend))
              then begin
                let config = lint_config x.backend in
                let report = replay "lint.run" (fun () -> Lint.run ~config g) in
                let cycles =
                  Trace.span ~replay_of:"lint.run" tr "graph.cycles" (fun () ->
                      try Cycles.count ~max_cycles:config.Lint.max_cycles g
                      with Failure _ -> 0)
                in
                let compiled =
                  replay "compiler.recompile" (fun () ->
                      Compiler.recompile ~options:(compile_options x.backend)
                        x.shadow algorithm delta)
                in
                c.cycles <- c.cycles + cycles;
                if report.Lint.incomplete <> None then c.incomplete <- c.incomplete + 1;
                match compiled with
                | Ok (plan, st) ->
                  count_route c plan.Compiler.route;
                  Option.iter
                    (fun (lp : Lp.resolve_stats) ->
                      c.lp_rows <- c.lp_rows + lp.Lp.rrows;
                      c.lp_pivots <- c.lp_pivots + lp.Lp.rpivots)
                    st.Compiler.lp_stats
                | Error _ -> ()
              end
          end;
          (result, call))
    in
    latencies := ((if mid then "edit-mid" else "edit"), ms (now () -. t0)) :: !latencies;
    (* the reconfigure call alone, without the traced pass's replays *)
    (if mid then reconfig_mid else reconfig_idle) := call :: !(if mid then reconfig_mid else reconfig_idle);
    incr edits;
    if mid then Hashtbl.replace mid_rids (edit_rid i) ();
    let g = Serve.graph x.s in
    Hashtbl.replace known (Thresholds.graph_fingerprint g, x.backend) ();
    match result with
    | Error r ->
      mismatches :=
        Format.asprintf "%s: edit refused: %a" x.spec.Inputs.tname
          Serve.pp_rejection r
        :: !mismatches
    | Ok stats ->
      tables := (g, x.backend, table_of_avoidance (Serve.avoidance x.s)) :: !tables;
      (match stats with
      | None -> incr hits
      | Some st ->
        spliced := !spliced + st.Compiler.spliced_edges;
        recomputed := !recomputed + st.Compiler.recomputed_edges)
  in
  let step i =
    (match parse_request reqs.(i) with
    | Run (t, kseed) -> finish_run (start_run i t kseed)
    | Edit (t, script) -> edit ~mid:false i t script
    | Edit_mid (t, kseed, script) ->
      let r = start_run i t kseed in
      edit ~mid:true i t script;
      finish_run r);
  in
  let minor0 = (Gc.quick_stat ()).Gc.minor_collections in
  let elapsed, steps, peak = timed_loop ctx step in
  let minor = (Gc.quick_stat ()).Gc.minor_collections - minor0 in
  let stats = Serve.stats srv in
  Serve.shutdown srv;
  (* correctness *)
  Option.iter (fun m -> mismatches := ("butterfly: " ^ m) :: !mismatches) refusal;
  let table_memo = Hashtbl.create 256 in
  let alternatives = ref 0 in
  List.iter
    (fun (g, backend, table) ->
      let key = (Thresholds.graph_fingerprint g, backend, table) in
      let verdict =
        match Hashtbl.find_opt table_memo key with
        | Some v -> v
        | None ->
          let v = check_table ~backend g table in
          Hashtbl.add table_memo key v;
          v
      in
      match verdict with
      | Same -> ()
      | Lp_alternative -> incr alternatives
      | Differs m -> mismatches := (Inputs.backend_name backend ^ ": " ^ m) :: !mismatches)
    !tables;
  let runs = List.rev !runs in
  List.iter
    (fun r ->
      let x = tenants.(r.tenant) in
      match
        check_run r.graph ~backend:x.backend ~kseed:r.kseed ~keep:x.spec.Inputs.keep
          ~inputs:x.spec.Inputs.inputs r.report
      with
      | None -> ()
      | Some m -> mismatches := (x.spec.Inputs.tname ^ ": " ^ m) :: !mismatches)
    runs;
  let sum f l = List.fold_left (fun a r -> a + f r.report) 0 l in
  let dummy_per_data =
    ratio
      (float (sum (fun r -> r.Report.dummy_messages) runs))
      (float (sum (fun r -> r.Report.data_messages) runs))
  in
  let all_reconfig = !reconfig_idle @ !reconfig_mid in
  let extra =
    [
      ("reconfig_p50_ms", p50 all_reconfig);
      ("reconfig_tail_ms", tail all_reconfig);
      ("data_msgs_per_s", float (sum (fun r -> r.Report.data_messages) runs) /. elapsed);
      ("dummy_per_data", dummy_per_data);
      ("gc.minor_collections_per_run", ratio (float minor) (float (List.length runs)));
      ("compiler.spliced_edges", float !spliced);
      ("compiler.recomputed_edges", float !recomputed);
      ("lp.warm_pivots", float stats.Serve.warm_pivots);
      ("serve.registry_hit_ratio", ratio (float !hits) (float !edits));
      ("serve.compiles", float stats.Serve.compiles);
      ("serve.recompiles", float stats.Serve.recompiles);
      ("serve.rejections", float stats.Serve.rejections);
    ]
    @
    if traced ctx then begin
      (* serve.reconfigure's self time (its span minus the replayed
         calls): its own work on idle edits, mostly the drain on mid-run
         ones *)
      let self mid =
        List.filter_map
          (fun (s, self) ->
            if s.Trace.name = "serve.reconfigure"
               && Hashtbl.mem mid_rids s.Trace.rid = mid
            then Some (ms self)
            else None)
          (Trace.self_times (Trace.spans tr))
      in
      [
        ("graph.cycles", float c.cycles);
        ("lint.incomplete", float c.incomplete);
        ("compiler.route.cs4", float c.route_cs4);
        ("compiler.route.general", float c.route_general);
        ("compiler.route.lp", float c.route_lp);
        ("compiler.route.min", float c.route_min);
        ("lp.rows", float c.lp_rows);
        ("lp.pivots", float c.lp_pivots);
        ( "parallel_engine.blocked_per_msg",
          ratio (float (Atomic.get pc.blocked)) (float (Atomic.get pc.pushes)) );
        ("serve.reconfigure_self_ms", p50 (self false));
        ("serve.drain_wait_ms", p50 (self true));
      ]
    end
    else []
  in
  let reconfig_tail = Stats.tail (Stats.sorted (if all_reconfig = [] then [ 0. ] else all_reconfig)) in
  {
    setups;
    latencies = List.rev !latencies;
    elapsed;
    steps;
    attempted = List.length !latencies;
    mismatches = !mismatches;
    heap_peak_words = peak;
    extra;
    counters =
      stats_counters stats
      @ [
          ("dummy_per_data", dummy_per_data);
          ("compiler.spliced_edges", float !spliced);
          ("compiler.recomputed_edges", float !recomputed);
          ("registry_hits", float !hits);
        ];
    notes =
      [
        ("edits", Json.Int !edits);
        ("lp_alternative_optima", Json.Int !alternatives);
        ("mid_run_edits", Json.Int (List.length !reconfig_mid));
        ("revisit_percent", Json.Int Inputs.revisit_percent);
        ("mid_run_percent", Json.Int Inputs.mid_run_percent);
        ("reconfig_tail_percentile", Json.Str reconfig_tail.Stats.label);
        ("reconfig_tail_beyond", Json.Int reconfig_tail.Stats.beyond);
      ];
  }
