open Fstream_graph
open Fstream_ladder

type algorithm = Propagation | Non_propagation | Relay_propagation

type backend = Exact | Lp | Auto

type route =
  | Cs4_route of Cs4.t
  | General_route of { cycles : int }
  | Lp_route of { components : int; rows : int }
  | Min_route of { exact : route; lp : route }

type fused = {
  fusion : Fusion.t;
  fused_intervals : Interval.t array;
}

type plan = {
  algorithm : algorithm;
  intervals : Interval.t array;
  route : route;
  fused : fused option;
}

type error =
  | Not_a_dag
  | Disconnected
  | Not_two_terminal
  | Non_cs4_rejected of Cs4.failure
  | Cycle_budget_exceeded of int

let pp_error ppf = function
  | Not_a_dag -> Format.pp_print_string ppf "the topology has a directed cycle"
  | Disconnected -> Format.pp_print_string ppf "the topology is not connected"
  | Not_two_terminal ->
    Format.pp_print_string ppf
      "not a two-terminal DAG (need exactly one source, one sink, every node \
       on a source-to-sink path)"
  | Non_cs4_rejected failure ->
    Format.fprintf ppf "%a, and the general fallback is disabled"
      Cs4.pp_failure failure
  | Cycle_budget_exceeded budget ->
    Format.fprintf ppf
      "cycle enumeration exceeded the budget of %d simple cycles" budget

let error_to_string e = Format.asprintf "%a" pp_error e

let rec pp_route ppf = function
  | Cs4_route cls ->
    let sp, ladders =
      List.fold_left
        (fun (sp, la) (_, _, b) ->
          match b with
          | Cs4.Sp_block _ -> (sp + 1, la)
          | Cs4.Ladder_block _ -> (sp, la + 1))
        (0, 0) cls.Cs4.blocks
    in
    Format.fprintf ppf "CS4 (%d SP block%s, %d ladder%s)" sp
      (if sp = 1 then "" else "s")
      ladders
      (if ladders = 1 then "" else "s")
  | General_route { cycles } ->
    Format.fprintf ppf "general DAG fallback (%d cycles enumerated)" cycles
  | Lp_route { components; rows } ->
    Format.fprintf ppf
      "LP backend (%d cyclic component%s, %d rows)" components
      (if components = 1 then "" else "s")
      rows
  | Min_route { exact; lp } ->
    Format.fprintf ppf "edge-wise min of %a and %a" pp_route exact pp_route lp

let run_general algorithm ~max_cycles g =
  let ivals = Array.make (Graph.num_edges g) Interval.inf in
  let update =
    match algorithm with
    | Propagation -> General.update_propagation
    | Non_propagation -> General.update_non_propagation
    | Relay_propagation -> General.update_relay_propagation
  in
  (* each cycle is folded into the table as it is found: the list of a
     large block's cycles would outgrow memory before the budget *)
  let cycles =
    Cycles.fold ~max_cycles g ~init:0 ~f:(fun k c ->
        update ivals c;
        k + 1)
  in
  {
    algorithm;
    intervals = ivals;
    route = General_route { cycles };
    fused = None;
  }

(* Safety is downward-closed in the interval table (smaller intervals
   send dummies sooner), so the edge-wise minimum of two safe tables is
   safe — the sound way to combine the exact and LP tables when the
   Auto backend can afford both. Neither table dominates the other
   (bench §LP1 measures tightness ratios on both sides of 1), so the
   min is the one table no single backend run can contradict. *)
let min_combine exact_plan lp_plan =
  {
    algorithm = exact_plan.algorithm;
    intervals =
      Array.mapi
        (fun i v -> Interval.min v lp_plan.intervals.(i))
        exact_plan.intervals;
    route = Min_route { exact = exact_plan.route; lp = lp_plan.route };
    fused = None;
  }

module Options = struct
  type t = {
    allow_general : bool;
    max_cycles : int;
    backend : backend;
    fuse : bool;
    pin : (Graph.node -> bool) option;
    filter_class : (Graph.node -> int) option;
  }

  let default =
    {
      allow_general = true;
      max_cycles = 10_000_000;
      backend = Exact;
      fuse = false;
      pin = None;
      filter_class = None;
    }
end

(* A CS4 graph's bridges are its one-edge serial blocks. *)
let rec route_bridges g = function
  | Cs4_route cls ->
    let b = Array.make (Graph.num_edges g) false in
    List.iter (function [ id ] -> b.(id) <- true | _ -> ()) cls.Cs4.block_ids;
    Some b
  | Min_route { exact; _ } -> route_bridges g exact
  | General_route _ | Lp_route _ -> None

let attach_fusion (options : Options.t) g p =
  if not options.fuse then p
  else
    let fusion =
      Fusion.fuse ?pin:options.pin ?filter_class:options.filter_class
        ?bridges:(route_bridges g p.route) g
    in
    let fused_intervals = Fusion.derive_intervals fusion p.intervals in
    { p with fused = Some { fusion; fused_intervals } }

let send_thresholds g intervals =
  Thresholds.of_array g (Array.map Interval.threshold intervals)

let sdf_thresholds g =
  Thresholds.of_array g (Array.make (Graph.num_edges g) (Some 1))

(* ---------------- the compile route ------------------------------- *)

module Sp_tree = Fstream_spdag.Sp_tree

type recompile_stats = {
  spliced_edges : int;
  recomputed_edges : int;
  lp_stats : Lp.resolve_stats option;
}

(* The residue of an epoch whose exact route took the CS4 path: its
   classification and table, which a resize-only edit of that graph
   refreshes and splices. *)
type snapshot = {
  sfp : int;
  salgo : algorithm;
  sbackend : backend;
  scls : Cs4.t;
  stable : Interval.t array;
}

type cache = {
  clock : Mutex.t;
  mutable snap : snapshot option;
}

let cache_create () = { clock = Mutex.create (); snap = None }

(* a snapshot is never mutated once stored, so the fork shares it *)
let cache_fork cache =
  Mutex.lock cache.clock;
  let fork = { clock = Mutex.create (); snap = cache.snap } in
  Mutex.unlock cache.clock;
  fork

(* The paper's per-block updates: §IV on an SP block, §VI on a ladder,
   both into a table still at [Inf] on the block's edges. *)
let update_block algorithm ivals = function
  | Cs4.Sp_block t -> (
    match algorithm with
    | Propagation -> Sp_prop.update ivals t
    | Non_propagation -> Sp_nonprop.update ivals t
    | Relay_propagation -> Sp_nonprop.update_relay ivals t)
  | Cs4.Ladder_block l -> (
    match algorithm with
    | Propagation -> Ladder_prop.update ivals l
    | Non_propagation -> Ladder_nonprop.update ivals l
    | Relay_propagation -> Ladder_nonprop.update_relay ivals l)

let refresh_block g = function
  | Cs4.Sp_block t -> Cs4.Sp_block (Sp_tree.refresh g t)
  | Cs4.Ladder_block l -> Cs4.Ladder_block (Ladder.refresh g l)

(* The CS4 table, one serial block at a time. Given a resize-only
   edit's dirty edges and the previous epoch's table ([prev]), a block
   with no dirty edge splices its previous values: block values are
   block-local (Theorem V.7), so no interval arithmetic at all. Every
   other block is refreshed against [g]'s capacities and recomputed by
   the paper's update for its class. A cold compile ([prev = None])
   computes every block of a fresh classification. *)
let run_cs4 algorithm g (cls : Cs4.t) prev =
  let ivals = Array.make (Graph.num_edges g) Interval.inf in
  let spliced = ref 0 and recomputed = ref 0 in
  let block (s, d, b) ids =
    match prev with
    | Some (dirty, table) when not (List.exists (Array.get dirty) ids) ->
      List.iter (fun id -> ivals.(id) <- table.(id)) ids;
      spliced := !spliced + List.length ids;
      (s, d, b)
    | _ ->
      let b = if Option.is_some prev then refresh_block g b else b in
      update_block algorithm ivals b;
      recomputed := !recomputed + List.length ids;
      (s, d, b)
  in
  let blocks = List.map2 block cls.Cs4.blocks cls.Cs4.block_ids in
  ({ cls with Cs4.blocks }, ivals, !spliced, !recomputed)

(* The one compile route; caller holds [clock]. Every public entry
   point lands here. The one reuse: a resize-only edit of the graph the
   previous epoch compiled on the CS4 path, under the same algorithm
   and backend, keeps that epoch's classification (the topology did
   not change, so neither did DAG-ness, connectivity or the
   decomposition) and splices its clean blocks. Anything else — a
   structural edit, no previous epoch, any other route — compiles cold
   through the same dispatch, and the LP always solves every
   component. *)
let compile_locked cache (options : Options.t) algorithm
    ~(delta : Edit.delta option) g =
  let backend = options.backend in
  let prev =
    match (delta, cache.snap) with
    | Some d, Some snap
      when d.Edit.resize_only
           && snap.sfp = Thresholds.graph_fingerprint d.Edit.base
           && snap.salgo = algorithm && snap.sbackend = backend ->
      Some (d, snap)
    | _ -> None
  in
  (* [Ok None]: the Auto backend hands over to the LP exactly where the
     exact route gives up *)
  let give_up e = if backend = Auto then Ok None else Error e in
  let cs4 (cls, intervals, spliced, recomputed) =
    let plan =
      { algorithm; intervals; route = Cs4_route cls; fused = None }
    in
    Ok (Some (plan, Some (cls, intervals), spliced, recomputed))
  in
  let exact order =
    match prev with
    | Some (d, snap) ->
      cs4 (run_cs4 algorithm g snap.scls (Some (d.Edit.dirty, snap.stable)))
    | None -> (
      match Cs4.classify ?order g with
      | Ok cls -> cs4 (run_cs4 algorithm g cls None)
      | Error failure when not options.allow_general ->
        give_up
          (match failure with
          | Cs4.Not_two_terminal -> Not_two_terminal
          | Cs4.Bad_block _ -> Non_cs4_rejected failure)
      | Error _ -> (
        match run_general algorithm ~max_cycles:options.max_cycles g with
        | plan -> Ok (Some (plan, None, 0, Graph.num_edges g))
        | exception Cycles.Budget_exceeded budget ->
          give_up (Cycle_budget_exceeded budget)))
  in
  (* The LP table bounds the run sums themselves, so one table serves
     all three avoidance algorithms; [algorithm] is recorded for the
     threshold-derivation step downstream. *)
  let lp () =
    let intervals, st = Lp.resolve g in
    let route =
      Lp_route { components = st.Lp.rcomponents; rows = st.Lp.rrows }
    in
    ({ algorithm; intervals; route; fused = None }, st)
  in
  (* the compile's one sort; a two-terminal DAG is connected *)
  let recheck = Option.is_none prev in
  let order = if recheck then Topo.order g else None in
  if recheck && Option.is_none order then Error Not_a_dag
  else if
    recheck && Option.is_none (Topo.dag_terminals g)
    && not (Topo.connected g)
  then Error Disconnected
  else
    match if backend = Lp then Ok None else exact order with
    | Error e -> Error e
    | Ok exact ->
      let lp = if backend = Exact then None else Some (lp ()) in
      let plan, cs4, spliced_edges, recomputed_edges =
        match (exact, lp) with
        | Some (p, cs4, s, r), None -> (p, cs4, s, r)
        | Some (p, cs4, s, r), Some (lp_plan, _) ->
          (min_combine p lp_plan, cs4, s, r)
        | None, Some (lp_plan, _) -> (lp_plan, None, 0, 0)
        | None, None ->
          (* only Auto hands over to the LP, and Auto runs it *)
          assert false
      in
      cache.snap <-
        Option.map
          (fun (scls, stable) ->
            {
              sfp = Thresholds.graph_fingerprint g;
              salgo = algorithm;
              sbackend = backend;
              scls;
              stable;
            })
          cs4;
      Ok
        ( attach_fusion options g plan,
          { spliced_edges; recomputed_edges; lp_stats = Option.map snd lp } )

let with_clock cache f =
  Mutex.lock cache.clock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache.clock) f

let compile_cached ?(options = Options.default) cache algorithm g =
  with_clock cache (fun () ->
      compile_locked cache options algorithm ~delta:None g)

let recompile ?(options = Options.default) cache algorithm
    (delta : Edit.delta) =
  with_clock cache (fun () ->
      compile_locked cache options algorithm ~delta:(Some delta)
        delta.Edit.graph)

let compile ?options algorithm g =
  Result.map fst (compile_cached ?options (cache_create ()) algorithm g)

let propagation_thresholds g intervals =
  let bridge = Articulation.bridges g in
  Thresholds.of_array g
    (Array.mapi
       (fun i v ->
         match Interval.threshold v with
         | Some k -> Some k
         | None -> if bridge.(i) then None else Some 1)
       intervals)
