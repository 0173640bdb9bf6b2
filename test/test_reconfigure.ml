(* Hot-reconfiguration differential suites.

   Layer 1: applying a random edit script and recompiling (a resize
   splices its clean CS4 blocks, anything else compiles cold) is
   bit-for-bit the table a full recompile of the edited graph produces,
   across the three avoidance algorithms, both backends and the graph
   families of the paper, one-block SP DAGs included.

   Layer 2: the serving layer — reconfigure-then-run behaves exactly
   like admitting the edited topology fresh, the epoch/stat counters
   move, and a mid-run reconfigure drains to the run boundary instead
   of corrupting the in-flight session. *)

open Fstream_graph
open Fstream_core

(* ================= Layer 1: recompile == full compile ================= *)

module Topo_gen = Fstream_workloads.Topo_gen

let calgos =
  [ ("prop", Compiler.Propagation); ("nonprop", Compiler.Non_propagation);
    ("relay", Compiler.Relay_propagation) ]

(* One biconnected SP block of up to 128 edges: a random SP-DAG in
   parallel with one edge, so every edit lands in the only block and
   nothing splices. *)
let one_block_sp_of_seed seed =
  let module Sp_build = Fstream_spdag.Sp_build in
  let rng = Tutil.rng_of seed in
  let body =
    Topo_gen.random_sp_spec rng
      ~target_edges:(1 + Random.State.int rng 127)
      ~max_cap:7
  in
  Sp_build.to_graph
    (Sp_build.Parallel [ body; Sp_build.Edge (1 + Random.State.int rng 7) ])

(* The third component is the exact differential's cycle budget. An
   edit that breaks CS4 sends both sides to the general fallback, which
   enumerates every simple cycle: millions in a 128-edge block. Under a
   small budget both sides fail identically instead. *)
let families =
  let default = Compiler.Options.default.max_cycles in
  [ ("sp", (fun seed -> Tutil.random_sp_of_seed seed), default);
    ("ladder", (fun seed -> Tutil.random_ladder_of_seed seed), default);
    ("cs4", (fun seed -> Tutil.random_cs4_of_seed seed), default);
    ("one-block sp", one_block_sp_of_seed, 1_000) ]

(* One differential round: recompile through the cache against a full
   compile of the edited graph. Exact route is bit-for-bit; errors must
   agree too (a script that breaks compilability breaks it for both). *)
let check_exact_round ?options cache algorithm delta =
  let incr = Compiler.recompile ?options cache algorithm delta in
  let full = Compiler.compile ?options algorithm delta.Edit.graph in
  match (incr, full) with
  | Ok (pi, stats), Ok pf ->
    Tutil.check_intervals "incremental == full" pf.Compiler.intervals
      pi.Compiler.intervals;
    (match pi.Compiler.route with
    | Compiler.Cs4_route _ ->
      Alcotest.(check int) "splice + recompute covers the graph"
        (Graph.num_edges delta.Edit.graph)
        (stats.Compiler.spliced_edges + stats.Compiler.recomputed_edges)
    | _ -> ());
    true
  | Error e1, Error e2 ->
    Alcotest.(check string)
      "incremental and full fail identically"
      (Compiler.error_to_string e2)
      (Compiler.error_to_string e1);
    true
  | Ok _, Error e ->
    Alcotest.failf "incremental Ok but full compile failed: %s"
      (Compiler.error_to_string e)
  | Error e, Ok _ ->
    Alcotest.failf "full compile Ok but incremental failed: %s"
      (Compiler.error_to_string e)

(* Two rounds of random edits through one cache — the second round
   chains epochs, so it also covers recompiling from a recompiled
   snapshot (and from a poisoned one, when round 1 failed). *)
let exact_incr_eq_full (aname, algorithm) (fname, family, max_cycles) =
  Tutil.qtest ~count:300
    (Printf.sprintf "incremental == full compile (%s, %s)" aname fname)
    Tutil.seed_gen (fun seed ->
      let g0 = family seed in
      let rng = Tutil.rng_of (seed + 0xed17) in
      let cache = Compiler.cache_create () in
      let options = { Compiler.Options.default with max_cycles } in
      match Compiler.compile_cached ~options cache algorithm g0 with
      | Error _ -> QCheck.assume_fail ()
      | Ok _ -> (
        match Edit.apply g0 (Tutil.random_ops rng g0) with
        | Error e -> Alcotest.failf "generator produced an invalid script: %s" e
        | Ok delta ->
          let ok1 = check_exact_round ~options cache algorithm delta in
          let g1 = delta.Edit.graph in
          (match Edit.apply g1 (Tutil.random_ops rng g1) with
          | Error e ->
            Alcotest.failf "generator produced an invalid script: %s" e
          | Ok delta2 ->
            ignore (check_exact_round ~options cache algorithm delta2));
          ok1))

(* Capacity A -> B -> A across three epochs: epoch 2 must equal
   epoch 0, with no epoch-1 residue left in the table. *)
let exact_resize_back (aname, algorithm) =
  Tutil.qtest ~count:150
    (Printf.sprintf "resize there and back is exact (%s)" aname)
    Tutil.seed_gen (fun seed ->
      let g = Tutil.random_cs4_of_seed seed in
      let e0 = Graph.edge g 0 in
      let cache = Compiler.cache_create () in
      match Compiler.compile_cached cache algorithm g with
      | Error _ -> QCheck.assume_fail ()
      | Ok (p0, _) -> (
        match Edit.apply g [ Edit.Resize { edge = 0; cap = e0.Graph.cap + 3 } ]
        with
        | Error e -> Alcotest.fail e
        | Ok d1 ->
          ignore (check_exact_round cache algorithm d1);
          (match
             Edit.apply d1.Edit.graph
               [ Edit.Resize { edge = 0; cap = e0.Graph.cap } ]
           with
          | Error e -> Alcotest.fail e
          | Ok d2 -> (
            match Compiler.recompile cache algorithm d2 with
            | Error e -> Alcotest.fail (Compiler.error_to_string e)
            | Ok (p2, _) ->
              Tutil.check_intervals "epoch 2 == epoch 0" p0.Compiler.intervals
                p2.Compiler.intervals));
          true))

(* Remove the last edge, re-add an identical record, resize elsewhere:
   a recreated record at a recycled id must be recomputed, not taken
   for the removed one. *)
let exact_remove_readd (aname, algorithm) =
  Tutil.qtest ~count:150
    (Printf.sprintf "remove/re-add same record (%s)" aname)
    Tutil.seed_gen (fun seed ->
      let g = Tutil.random_cs4_of_seed seed in
      let last = Graph.num_edges g - 1 in
      let e = Graph.edge g last in
      let ops =
        [
          Edit.Remove_edge { edge = last };
          Edit.Add_edge { src = e.Graph.src; dst = e.Graph.dst; cap = e.Graph.cap };
          Edit.Resize { edge = 0; cap = 1 + (seed mod 6) };
        ]
      in
      let cache = Compiler.cache_create () in
      match Compiler.compile_cached cache algorithm g with
      | Error _ -> QCheck.assume_fail ()
      | Ok _ -> (
        match Edit.apply g ops with
        | Error _ -> QCheck.assume_fail ()
        | Ok delta -> check_exact_round cache algorithm delta))

(* ----- the one reuse rule ----- *)

(* The rule against its statement: after a resize-only script the
   recompile splices exactly the edges of the CS4 blocks with no
   resized edge; after a script with a structural op it splices
   nothing; and both recompiles equal a full compile of the edited
   graph (errors included). Both scripts start from forks of one
   primed cache. *)
let reuse_rule (fname, family, max_cycles) =
  Tutil.qtest ~count:300
    (Printf.sprintf "only a resize splices, its clean blocks (%s)" fname)
    Tutil.seed_gen (fun seed ->
      let _, algorithm = List.nth calgos (seed mod 3) in
      let g0 = family seed in
      let rng = Tutil.rng_of (seed + 0x5b1) in
      let options = { Compiler.Options.default with max_cycles } in
      let base = Compiler.cache_create () in
      match Compiler.compile_cached ~options base algorithm g0 with
      | Error _ -> QCheck.assume_fail ()
      | Ok (p0, _) ->
        let spliced ops =
          match Edit.apply g0 ops with
          | Error e -> Alcotest.failf "invalid script: %s" e
          | Ok d -> (
            let cache = Compiler.cache_fork base in
            match
              ( Compiler.recompile ~options cache algorithm d,
                Compiler.compile ~options algorithm d.Edit.graph )
            with
            | Ok (pi, st), Ok pf ->
              Tutil.check_intervals "recompile = full" pf.Compiler.intervals
                pi.Compiler.intervals;
              st.Compiler.spliced_edges
            | Error e1, Error e2 ->
              Alcotest.(check string)
                "recompile and full fail identically"
                (Compiler.error_to_string e2)
                (Compiler.error_to_string e1);
              0
            | _ -> Alcotest.fail "recompile and full compile disagree")
        in
        let ne = Graph.num_edges g0 in
        let pick () = Random.State.int rng ne in
        let resized =
          List.init (1 + Random.State.int rng 3) (fun _ -> pick ())
        in
        let clean =
          match p0.Compiler.route with
          | Compiler.Cs4_route cls ->
            List.fold_left
              (fun k ids ->
                if List.exists (fun id -> List.mem id resized) ids then k
                else k + List.length ids)
              0 cls.Fstream_ladder.Cs4.block_ids
          | _ -> 0
        in
        let resize edge =
          Edit.Resize { edge; cap = 1 + Random.State.int rng 6 }
        in
        Alcotest.(check int) "a resize splices the clean blocks" clean
          (spliced (List.map resize resized));
        let stage =
          Edit.Add_stage { edge = pick (); cap_in = 2; cap_out = 3 }
        in
        let rest =
          match Edit.apply g0 [ stage ] with
          | Ok d -> Tutil.random_ops rng d.Edit.graph
          | Error e -> Alcotest.fail e
        in
        Alcotest.(check int) "a structural script splices nothing" 0
          (spliced (stage :: rest));
        true)

(* ----- the LP route: bit-for-bit a cold compile ----- *)

let lp_options =
  { Compiler.Options.default with Compiler.Options.backend = Compiler.Lp }

(* The LP's optimum is canonical, so a recompile is the full compile's
   table interval for interval, and on the LP's safe polytope. *)
let lp_incr_eq_full (fname, family, _) =
  Tutil.qtest ~count:300
    (Printf.sprintf "LP incremental equal to full (%s)" fname)
    Tutil.seed_gen (fun seed ->
      let g0 = family seed in
      let rng = Tutil.rng_of (seed + 0x1b) in
      let cache = Compiler.cache_create () in
      match
        Compiler.compile_cached ~options:lp_options cache
          Compiler.Non_propagation g0
      with
      | Error _ -> QCheck.assume_fail ()
      | Ok _ -> (
        match Edit.apply g0 (Tutil.random_ops rng g0) with
        | Error e -> Alcotest.fail e
        | Ok delta -> (
          let incr =
            Compiler.recompile ~options:lp_options cache
              Compiler.Non_propagation delta
          in
          let full =
            Compiler.compile ~options:lp_options Compiler.Non_propagation
              delta.Edit.graph
          in
          match (incr, full) with
          | Ok (pi, _), Ok pf ->
            Tutil.check_intervals "incremental = full" pf.Compiler.intervals
              pi.Compiler.intervals;
            (match
               Lp.audit delta.Edit.graph
                 ~thresholds:
                   (Array.map Interval.threshold pi.Compiler.intervals)
             with
            | Ok () -> ()
            | Error w ->
              Alcotest.failf "incremental LP table fails audit: %a"
                (fun ppf -> Lp.pp_witness ppf)
                w);
            true
          | Error e1, Error e2 ->
            Compiler.error_to_string e1 = Compiler.error_to_string e2
          | Ok _, Error e ->
            Alcotest.failf "incremental Ok but full failed: %s"
              (Compiler.error_to_string e)
          | Error e, Ok _ ->
            Alcotest.failf "full Ok but incremental failed: %s"
              (Compiler.error_to_string e))))

(* Where the Auto backend can afford both routes, its table must be
   the edge-wise minimum of the exact and LP tables — safety is
   downward-closed, so the min of two safe tables is safe — and still
   on the LP's safe polytope. *)
let auto_options =
  { Compiler.Options.default with Compiler.Options.backend = Compiler.Auto }

let auto_min_combine (fname, family, _) =
  Tutil.qtest ~count:300
    (Printf.sprintf "auto = edge-wise min of exact and lp (%s)" fname)
    Tutil.seed_gen (fun seed ->
      let g = family seed in
      let plan options =
        match Compiler.compile ~options Compiler.Non_propagation g with
        | Ok p -> p.Compiler.intervals
        | Error e ->
          Alcotest.failf "compile rejected: %s" (Compiler.error_to_string e)
      in
      let exact = plan Compiler.Options.default in
      let lp = plan lp_options in
      let auto = plan auto_options in
      Array.iteri
        (fun i v ->
          if not (Interval.equal v (Interval.min exact.(i) lp.(i))) then
            QCheck.Test.fail_reportf "edge %d: auto is not min(exact, lp)" i)
        auto;
      (match
         Lp.audit g ~thresholds:(Array.map Interval.threshold auto)
       with
      | Ok () -> ()
      | Error w ->
        Alcotest.failf "auto table fails audit: %a"
          (fun ppf -> Lp.pp_witness ppf)
          w);
      true)

(* ================= Layer 2: the serving layer ================= *)

module Serve = Fstream_serve.Serve
module Engine = Fstream_runtime.Engine
module Report = Fstream_runtime.Report
module Filters = Fstream_runtime.Filters
module Lint = Fstream_analysis.Lint

(* Two long-lived servers: [server] absorbs the reconfigurations,
   [fresh] only ever sees fresh admissions — so comparing the two is
   comparing reconfigure-then-serve against admit-the-edited-graph,
   with no registry cross-talk. *)
let server =
  lazy
    (let t = Serve.create ~domains:2 () in
     at_exit (fun () -> Serve.shutdown t);
     t)

let fresh =
  lazy
    (let t = Serve.create ~domains:2 () in
     at_exit (fun () -> Serve.shutdown t);
     t)

let graph_of_family seed =
  match seed mod 3 with
  | 0 -> Tutil.random_sp_of_seed ~max_edges:24 seed
  | 1 -> Tutil.random_ladder_of_seed ~max_rungs:8 seed
  | _ -> Tutil.random_cs4_of_seed seed

let table_of = function
  | Engine.No_avoidance -> None
  | Engine.Propagation th | Engine.Non_propagation th ->
    Some (Thresholds.to_array th)

let modes =
  [ ("no-avoidance", Serve.No_avoidance); ("prop", Serve.Propagation);
    ("nonprop", Serve.Non_propagation) ]

let reconfigure_eq_fresh_admit (mname, mode) =
  Tutil.qtest ~count:100
    (Printf.sprintf "reconfigure == fresh admission (%s)" mname)
    Tutil.seed_gen (fun seed ->
      let t = Lazy.force server and t2 = Lazy.force fresh in
      let g0 = graph_of_family seed in
      let rng = Tutil.rng_of (seed + 0xa11) in
      match Serve.admit t ~mode g0 with
      | Error _ -> true (* inadmissible topology: nothing to reconfigure *)
      | Ok s -> (
        let ops = Tutil.random_ops rng g0 in
        match Serve.reconfigure t s ops with
        | Error _ ->
          (* refused scripts leave the session untouched on its epoch *)
          Serve.epoch s = 0
        | Ok _ -> (
          let g1 = Serve.graph s in
          match Serve.admit t2 ~mode g1 with
          | Error _ -> false (* reconfigure admitted what admission rejects *)
          | Ok s2 -> table_of (Serve.avoidance s) = table_of (Serve.avoidance s2)
          )))

(* Stale-verdict regression (the bug this PR's keying fixes): the same
   server must not serve one backend's cached lint verdict or table to
   a tenant admitted under another backend. FS201 on the butterfly is
   an Error under Exact and a Warning under Lp. *)
let test_lint_cache_keyed_by_backend () =
  let t = Serve.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
  let g = Topo_gen.fig4_butterfly ~cap:2 in
  (match Serve.admit t ~mode:Serve.Non_propagation g with
  | Ok _ -> Alcotest.fail "butterfly admitted under the Exact backend"
  | Error (Serve.Lint_rejected _) -> ()
  | Error r ->
    Alcotest.failf "wrong rejection: %a" (fun ppf -> Serve.pp_rejection ppf) r);
  (* same server, same fingerprint, Lp backend: must re-lint, not
     replay the cached Error verdict *)
  match Serve.admit t ~backend:Compiler.Lp ~mode:Serve.Non_propagation g with
  | Ok s -> (
    match Serve.avoidance s with
    | Engine.Non_propagation _ -> ()
    | _ -> Alcotest.fail "Lp admission produced no table")
  | Error r ->
    Alcotest.failf "butterfly rejected under the Lp backend: %a"
      (fun ppf -> Serve.pp_rejection ppf)
      r

(* Registry keying: same (fingerprint, mode, backend) shares one table
   physically; a different backend is a different entry. *)
let test_registry_keyed_by_backend () =
  let t = Serve.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
  let g = Topo_gen.fig4_left ~cap:2 in
  let admit ?backend () =
    match Serve.admit t ?backend ~mode:Serve.Non_propagation g with
    | Ok s -> s
    | Error r ->
      Alcotest.failf "fig4_left rejected: %a"
        (fun ppf -> Serve.pp_rejection ppf)
        r
  in
  let s1 = admit () in
  let s2 = admit () in
  let s3 = admit ~backend:Compiler.Lp () in
  Alcotest.(check bool) "same key shares physically" true
    (Serve.avoidance s1 == Serve.avoidance s2);
  Alcotest.(check bool) "different backend, different table" true
    (Serve.avoidance s1 != Serve.avoidance s3);
  Alcotest.(check int) "one compile per key" 2 (Serve.stats t).Serve.compiles

(* Epoch stamping and admission-desk counters across a reconfigure. *)
let test_epoch_and_counters () =
  let t = Serve.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
  let g = Topo_gen.fig4_left ~cap:2 in
  match Serve.admit t ~mode:Serve.Non_propagation g with
  | Error r ->
    Alcotest.failf "fig4_left rejected: %a"
      (fun ppf -> Serve.pp_rejection ppf)
      r
  | Ok s ->
    Alcotest.(check int) "admitted at epoch 0" 0 (Serve.epoch s);
    (match Serve.avoidance s with
    | Engine.Non_propagation th ->
      Alcotest.(check int) "table stamped epoch 0" 0 (Thresholds.epoch th)
    | _ -> Alcotest.fail "expected a threshold table");
    (match Serve.reconfigure t s [ Edit.Resize { edge = 0; cap = 4 } ] with
    | Ok (Some stats) ->
      Alcotest.(check bool) "the recompile did some work" true
        (stats.Compiler.spliced_edges + stats.Compiler.recomputed_edges > 0)
    | Ok None -> Alcotest.fail "expected an incremental recompile"
    | Error r ->
      Alcotest.failf "reconfigure refused: %a"
        (fun ppf -> Serve.pp_rejection ppf)
        r);
    Alcotest.(check int) "session at epoch 1" 1 (Serve.epoch s);
    (match Serve.avoidance s with
    | Engine.Non_propagation th ->
      Alcotest.(check int) "table stamped epoch 1" 1 (Thresholds.epoch th)
    | _ -> Alcotest.fail "expected a threshold table");
    let st = Serve.stats t in
    Alcotest.(check int) "recompile counted" 1 st.Serve.recompiles;
    Alcotest.(check int) "no LP pivots under the Exact backend" 0
      st.Serve.warm_pivots

(* Same, under the Lp backend: the server's [warm_pivots] counter is fed
   by the recompile's augmenting paths. *)
let test_lp_reconfigure_counters () =
  let t = Serve.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
  let g = Topo_gen.fig4_left ~cap:2 in
  match Serve.admit t ~backend:Compiler.Lp ~mode:Serve.Non_propagation g with
  | Error r ->
    Alcotest.failf "fig4_left rejected under Lp: %a"
      (fun ppf -> Serve.pp_rejection ppf)
      r
  | Ok s -> (
    match Serve.reconfigure t s [ Edit.Resize { edge = 0; cap = 4 } ] with
    | Ok (Some stats) -> (
      match stats.Compiler.lp_stats with
      | None -> Alcotest.fail "Lp backend recompile carried no LP stats"
      | Some lp ->
        Alcotest.(check bool) "the LP solved a component" true
          (lp.Lp.rcomponents >= 1);
        Alcotest.(check int) "pivots surfaced on the server counter"
          lp.Lp.rpivots (Serve.stats t).Serve.warm_pivots)
    | Ok None -> Alcotest.fail "expected an incremental recompile"
    | Error r ->
      Alcotest.failf "reconfigure refused: %a"
        (fun ppf -> Serve.pp_rejection ppf)
        r)

(* A lint-rejected reconfigure compiles (admission lints the plan it
   would serve) but counts nothing: compiles and recompiles stay put and
   the session stays on its epoch. The outcome is registered, so
   offering the same edit again returns the very same rejection —
   physically — without compiling or linting again. *)
let test_lint_rejected_reconfigure () =
  let t = Serve.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
  (* the Fig. 4 butterfly without its 2->4 channel is CS4; the edit
     puts the channel back *)
  let g =
    Graph.make ~nodes:6
      [ (0, 1, 2); (0, 2, 2); (1, 3, 2); (1, 4, 2); (2, 3, 2); (3, 5, 2);
        (4, 5, 2) ]
  in
  let ops = [ Edit.Add_edge { src = 2; dst = 4; cap = 2 } ] in
  match Serve.admit t ~mode:Serve.Non_propagation g with
  | Error r ->
    Alcotest.failf "butterfly minus a channel refused: %a"
      (fun ppf -> Serve.pp_rejection ppf)
      r
  | Ok s -> (
    let av = Serve.avoidance s in
    let before = Serve.stats t in
    let offer () =
      match Serve.reconfigure t s ops with
      | Error (Serve.Lint_rejected ds) ->
        Alcotest.(check bool) "FS201 among the reasons" true
          (List.exists (fun (d : Lint.diagnostic) -> d.code = "FS201") ds);
        ds
      | Ok _ -> Alcotest.fail "the butterfly was admitted by reconfigure"
      | Error r ->
        Alcotest.failf "wrong rejection: %a"
          (fun ppf -> Serve.pp_rejection ppf)
          r
    in
    let first = offer () in
    let check_untouched what =
      let st = Serve.stats t in
      Alcotest.(check int) (what ^ ": compiles") before.Serve.compiles
        st.Serve.compiles;
      Alcotest.(check int) (what ^ ": recompiles") before.Serve.recompiles
        st.Serve.recompiles;
      Alcotest.(check int) (what ^ ": epoch") 0 (Serve.epoch s);
      Alcotest.(check bool) (what ^ ": table") true (Serve.avoidance s == av);
      Alcotest.(check bool) (what ^ ": graph") true (Serve.graph s == g)
    in
    check_untouched "first offer";
    let again = offer () in
    check_untouched "second offer";
    Alcotest.(check bool) "the registry's rejection" true (again == first);
    Alcotest.(check int) "both offers counted as rejections"
      (before.Serve.rejections + 2)
      (Serve.stats t).Serve.rejections;
    (* the session still reconfigures normally afterwards *)
    match Serve.reconfigure t s [ Edit.Resize { edge = 0; cap = 3 } ] with
    | Ok (Some _) ->
      Alcotest.(check int) "one recompile" (before.Serve.recompiles + 1)
        (Serve.stats t).Serve.recompiles;
      Alcotest.(check int) "epoch 1" 1 (Serve.epoch s)
    | Ok None -> Alcotest.fail "expected an incremental recompile"
    | Error r ->
      Alcotest.failf "resize refused: %a" (fun ppf -> Serve.pp_rejection ppf) r)

(* A refused edit must not cost the session its incremental base: lint
   refuses the edited graph after it was recompiled, and that recompile
   ran on a fork of the base entry's cache, so the next edit still
   splices from the base epoch. The graph is three blocks — Fig. 4's
   butterfly without its 2->4 channel (7 edges), then two diamonds (4
   edges each) — and the refused edit puts the 2->4 channel back. A
   resize inside the butterfly block recomputes that block's 7 edges
   and splices the diamonds' 8, refused edit or not. *)
let test_refused_edit_keeps_cache () =
  let g =
    Graph.make ~nodes:12
      [ (0, 1, 2); (0, 2, 2); (1, 3, 2); (1, 4, 2); (2, 3, 2); (3, 5, 2);
        (4, 5, 2); (5, 6, 2); (5, 7, 2); (6, 8, 2); (7, 8, 2); (8, 9, 2);
        (8, 10, 2); (9, 11, 2); (10, 11, 2) ]
  in
  let resize = [ Edit.Resize { edge = 0; cap = 3 } ] in
  let resize_stats ~refused_first =
    let t = Serve.create ~domains:1 () in
    Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
    match Serve.admit t ~mode:Serve.Non_propagation g with
    | Error r ->
      Alcotest.failf "three-block graph refused: %a"
        (fun ppf -> Serve.pp_rejection ppf)
        r
    | Ok s -> (
      if refused_first then begin
        match
          Serve.reconfigure t s [ Edit.Add_edge { src = 2; dst = 4; cap = 2 } ]
        with
        | Error (Serve.Lint_rejected _) -> ()
        | Ok _ -> Alcotest.fail "the butterfly edit was admitted"
        | Error r ->
          Alcotest.failf "wrong rejection: %a"
            (fun ppf -> Serve.pp_rejection ppf)
            r
      end;
      match Serve.reconfigure t s resize with
      | Ok (Some st) ->
        (st.Compiler.spliced_edges, st.Compiler.recomputed_edges)
      | Ok None -> Alcotest.fail "expected an incremental recompile"
      | Error r ->
        Alcotest.failf "resize refused: %a"
          (fun ppf -> Serve.pp_rejection ppf)
          r)
  in
  let pair = Alcotest.(pair int int) in
  Alcotest.check pair "spliced, recomputed without a refused edit" (8, 7)
    (resize_stats ~refused_first:false);
  Alcotest.check pair "spliced, recomputed after a refused edit" (8, 7)
    (resize_stats ~refused_first:true)

(* A resize whose capacities would sum past [Graph.max_total_cap] is
   refused by the edit layer (exit 30 at the CLI) before any compile:
   the session stays on its epoch, and no run sizes its rings from a
   wrapped sum. *)
let test_overflowing_resize_refused () =
  let t = Serve.create ~domains:1 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
  let g = Topo_gen.pipeline ~stages:8 ~cap:2 in
  match Serve.admit t ~mode:Serve.Non_propagation g with
  | Error r ->
    Alcotest.failf "pipeline rejected: %a"
      (fun ppf -> Serve.pp_rejection ppf)
      r
  | Ok s -> (
    let huge edge = Edit.Resize { edge; cap = max_int } in
    match Serve.reconfigure t s [ huge 0; huge 1 ] with
    | Error (Serve.Edit_rejected _) ->
      Alcotest.(check int) "still at epoch 0" 0 (Serve.epoch s);
      Alcotest.(check int) "nothing recompiled" 0
        (Serve.stats t).Serve.recompiles
    | Ok _ -> Alcotest.fail "an overflowing resize was admitted"
    | Error r ->
      Alcotest.failf "wrong rejection: %a"
        (fun ppf -> Serve.pp_rejection ppf)
        r)

(* Mid-run reconfigure: drains the in-flight run to its boundary (the
   drained report stays cached, even for a concurrent awaiter), swaps
   epochs atomically, and the restarted session runs the new topology. *)
let test_midrun_reconfigure_drains () =
  let t = Serve.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
  let g = Topo_gen.pipeline ~stages:4 ~cap:2 in
  match Serve.admit t ~mode:Serve.Non_propagation g with
  | Error r ->
    Alcotest.failf "pipeline rejected: %a"
      (fun ppf -> Serve.pp_rejection ppf)
      r
  | Ok s ->
    let inputs = 3000 in
    let kernels () =
      Filters.for_graph (Serve.graph s) (fun _ outs -> Filters.passthrough outs)
    in
    Serve.start t ~kernels:(kernels ()) ~inputs s;
    (* one racing awaiter, one racing reconfigure *)
    let awaiter = Domain.spawn (fun () -> Serve.await s) in
    (match Serve.reconfigure t s [ Edit.Resize { edge = 0; cap = 3 } ] with
    | Ok _ -> ()
    | Error r ->
      Alcotest.failf "mid-run reconfigure refused: %a"
        (fun ppf -> Serve.pp_rejection ppf)
        r);
    let r_conc = Domain.join awaiter in
    let r_cached = Serve.await s in
    Alcotest.(check bool) "drained report cached (physically)" true
      (r_conc == r_cached);
    Alcotest.(check bool) "drained run completed" true
      (r_cached.Report.outcome = Report.Completed);
    Alcotest.(check int) "drained run delivered everything" inputs
      r_cached.Report.sink_data;
    Alcotest.(check int) "swapped to epoch 1" 1 (Serve.epoch s);
    (* restart on the new epoch: kernels rebuilt against the session's
       current graph *)
    Serve.start t ~kernels:(kernels ()) ~inputs:64 s;
    let r2 = Serve.await s in
    Alcotest.(check bool) "restarted run completed" true
      (r2.Report.outcome = Report.Completed);
    Alcotest.(check int) "restarted run delivered everything" 64
      r2.Report.sink_data

(* Concurrent reconfigures of one session apply one after the other:
   two domains resize different edges of the same session, racing a
   run in flight, and every round must show both edits, with the epoch
   counting the [Ok] results. Unserialized, both calls edit the same
   base and the later swap discards the earlier edit. *)
let test_concurrent_reconfigures () =
  let t = Serve.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
  let g = Topo_gen.pipeline ~stages:4 ~cap:2 in
  match Serve.admit t ~mode:Serve.Non_propagation g with
  | Error r ->
    Alcotest.failf "pipeline rejected: %a"
      (fun ppf -> Serve.pp_rejection ppf)
      r
  | Ok s ->
    let oks = ref 0 in
    for round = 1 to 8 do
      let cap = 2 + round in
      Serve.start t
        ~kernels:
          (Filters.for_graph (Serve.graph s) (fun _ outs ->
               Filters.passthrough outs))
        ~inputs:200 s;
      let resize edge () =
        Serve.reconfigure t s [ Edit.Resize { edge; cap } ]
      in
      let other = Domain.spawn (resize 1) in
      let mine = resize 0 () in
      List.iter
        (function
          | Ok _ -> incr oks
          | Error r ->
            Alcotest.failf "resize refused: %a"
              (fun ppf -> Serve.pp_rejection ppf)
              r)
        [ mine; Domain.join other ];
      let g = Serve.graph s in
      Alcotest.(check (pair int int))
        (Printf.sprintf "round %d: both edits visible" round)
        (cap, cap)
        ((Graph.edge g 0).Graph.cap, (Graph.edge g 1).Graph.cap);
      Alcotest.(check bool)
        (Printf.sprintf "round %d: drained run completed" round)
        true
        ((Serve.await s).Report.outcome = Report.Completed)
    done;
    Alcotest.(check int) "epoch counts the Ok results" !oks (Serve.epoch s)

let suite =
  List.concat_map
      (fun a -> List.map (exact_incr_eq_full a) families)
      calgos
  @ List.map exact_resize_back calgos
  @ List.map exact_remove_readd calgos
  @ List.map lp_incr_eq_full families
  @ List.map auto_min_combine families
  @ List.map reuse_rule families
  @ List.map reconfigure_eq_fresh_admit modes
  @ [
      Alcotest.test_case "lint verdicts keyed by backend" `Quick
        test_lint_cache_keyed_by_backend;
      Alcotest.test_case "registry keyed by backend, shared within" `Quick
        test_registry_keyed_by_backend;
      Alcotest.test_case "epochs stamped, counters advance" `Quick
        test_epoch_and_counters;
      Alcotest.test_case "LP reconfigure feeds warm-pivot counter" `Quick
        test_lp_reconfigure_counters;
      Alcotest.test_case "mid-run reconfigure drains to the boundary" `Quick
        test_midrun_reconfigure_drains;
      Alcotest.test_case "lint-rejected reconfigure counts nothing, is cached"
        `Quick test_lint_rejected_reconfigure;
      Alcotest.test_case "refused edit keeps the base epoch for the next"
        `Quick test_refused_edit_keeps_cache;
      Alcotest.test_case "a resize past the capacity bound is refused" `Quick
        test_overflowing_resize_refused;
      Alcotest.test_case "concurrent reconfigures of one session serialize"
        `Quick test_concurrent_reconfigures;
    ]
