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

(* The exact-route residue of one epoch: the classification, whose
   blocks' edge ids are the partition the next epoch's blocks trace
   their ancestry to, and the exact table, which the next epoch's
   unedited blocks splice from. *)
type exact_snap = { scls : Cs4.t; stable : Interval.t array }

type snapshot = {
  sfp : int;
  salgo : algorithm;
  sbackend : backend;
  sexact : exact_snap option;
  slp : Lp.state option;
  splan : plan;
}

type cache = {
  clock : Mutex.t;
  mutable snap : snapshot option;
}

let cache_create () = { clock = Mutex.create (); snap = None }

let cache_plan cache =
  Mutex.lock cache.clock;
  let p = Option.map (fun s -> s.splan) cache.snap in
  Mutex.unlock cache.clock;
  p

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

(* The CS4 table, one serial block at a time. A block the edit left an
   unedited copy of a previous block ({!Edit.ancestry}) splices that
   block's values read at the edges' origins: block values are
   block-local, so no interval arithmetic at all. Any other block is
   rebuilt by [refresh] against [g]'s records (the identity on a fresh
   classification) and recomputed by the paper's update for its class.
   A fresh compile has no previous epoch and splices nothing. *)
let run_cs4 ~refresh algorithm g (cls : Cs4.t) prev =
  let ivals = Array.make (Graph.num_edges g) Interval.inf in
  let spliced = ref 0 and recomputed = ref 0 in
  let splice =
    match prev with
    | None -> fun _ -> false
    | Some ((d : Edit.delta), pe) -> (
      let ancestry = Edit.ancestry d ~base:pe.scls.Cs4.block_ids in
      fun ids ->
        match ancestry ids with
        | Some { Edit.unedited = true; _ } ->
          List.iter
            (fun id -> ivals.(id) <- pe.stable.(Option.get d.Edit.origin.(id)))
            ids;
          true
        | _ -> false)
  in
  let block (s, d, b) ids =
    if splice ids then begin
      spliced := !spliced + List.length ids;
      (s, d, b)
    end
    else begin
      let b = refresh b in
      update_block algorithm ivals b;
      recomputed := !recomputed + List.length ids;
      (s, d, b)
    end
  in
  let blocks = List.map2 block cls.Cs4.blocks cls.Cs4.block_ids in
  ( { scls = { cls with Cs4.blocks }; stable = ivals },
    !spliced,
    !recomputed )

(* Every edge and node kept its own id: the script only changed
   capacities, so the edited graph's topology — and therefore its
   classification — is the base graph's. *)
let structure_preserving (d : Edit.delta) g =
  let ident m =
    let ok = ref true in
    Array.iteri
      (fun i -> function Some j when j = i -> () | _ -> ok := false)
      m;
    !ok
  in
  Array.length d.Edit.edge_map = Graph.num_edges g
  && Array.length d.Edit.node_map = Graph.num_nodes g
  && ident d.Edit.edge_map
  && ident d.Edit.node_map

(* The one compile route; caller holds [clock]. Every public entry
   point lands here, and a usable previous epoch changes only what the
   route starts from — the spliced blocks and LP components — never
   which route runs. The previous epoch is usable only when it
   describes exactly the graph the edit script was applied to, under
   the same algorithm and backend; anything else is a fresh compile. *)
let compile_locked cache (options : Options.t) algorithm
    ~(delta : Edit.delta option) g =
  let backend = options.backend in
  let prev =
    match (delta, cache.snap) with
    | Some d, Some snap
      when snap.sfp = Thresholds.graph_fingerprint d.Edit.base
           && snap.salgo = algorithm && snap.sbackend = backend ->
      Some (d, snap)
    | _ -> None
  in
  let prev_exact =
    match prev with
    | Some (d, { sexact = Some pe; _ }) -> Some (d, pe)
    | _ -> None
  in
  (* a structure-preserving edit of a previously classified graph
     cannot change DAG-ness, connectivity or the classification: skip
     all three and refresh the previous decomposition in place — the
     reason a single-edge resize is sublinear in the graph size *)
  let in_place =
    match prev_exact with
    | Some (d, _) when structure_preserving d g -> prev_exact
    | _ -> None
  in
  (* [Ok None]: the Auto backend hands over to the LP exactly where the
     exact route gives up *)
  let give_up e = if backend = Auto then Ok None else Error e in
  let cs4 (pe, spliced, recomputed) =
    let plan =
      { algorithm; intervals = pe.stable; route = Cs4_route pe.scls;
        fused = None }
    in
    Ok (Some (plan, Some pe, spliced, recomputed))
  in
  let exact order =
    match in_place with
    | Some (_, pe) ->
      cs4 (run_cs4 ~refresh:(refresh_block g) algorithm g pe.scls in_place)
    | None -> (
      match Cs4.classify ?order g with
      | Ok cls -> cs4 (run_cs4 ~refresh:Fun.id algorithm g cls prev_exact)
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
    let prev =
      Option.bind prev (fun (d, s) -> Option.map (fun st -> (st, d)) s.slp)
    in
    let intervals, st, state = Lp.resolve ?prev g in
    let route =
      Lp_route { components = st.Lp.rcomponents; rows = st.Lp.rrows }
    in
    ({ algorithm; intervals; route; fused = None }, st, state)
  in
  (* the compile's one sort; a two-terminal DAG is connected *)
  let recheck = Option.is_none in_place in
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
      let plan, sexact, spliced_edges, recomputed_edges =
        match (exact, lp) with
        | Some (p, pe, s, r), None -> (p, pe, s, r)
        | Some (p, pe, s, r), Some (lp_plan, _, _) ->
          (min_combine p lp_plan, pe, s, r)
        | None, Some (lp_plan, _, _) -> (lp_plan, None, 0, 0)
        | None, None ->
          (* only Auto hands over to the LP, and Auto runs it *)
          assert false
      in
      let plan = attach_fusion options g plan in
      cache.snap <-
        Some
          {
            sfp = Thresholds.graph_fingerprint g;
            salgo = algorithm;
            sbackend = backend;
            sexact;
            slp = Option.map (fun (_, _, state) -> state) lp;
            splan = plan;
          };
      Ok
        ( plan,
          {
            spliced_edges;
            recomputed_edges;
            lp_stats = Option.map (fun (_, st, _) -> st) lp;
          } )

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
