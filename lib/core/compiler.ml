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
      "LP backend (%d cyclic component%s, %d simplex rows)" components
      (if components = 1 then "" else "s")
      rows
  | Min_route { exact; lp } ->
    Format.fprintf ppf "edge-wise min of %a and %a" pp_route exact pp_route lp

let run_general algorithm ~max_cycles g =
  let ivals = Array.make (Graph.num_edges g) Interval.inf in
  let cycles = Cycles.enumerate ~max_cycles g in
  let fold =
    match algorithm with
    | Propagation -> General.update_propagation
    | Non_propagation -> General.update_non_propagation
    | Relay_propagation -> General.update_relay_propagation
  in
  List.iter (fold ivals) cycles;
  {
    algorithm;
    intervals = ivals;
    route = General_route { cycles = List.length cycles };
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

let attach_fusion (options : Options.t) g p =
  if not options.fuse then p
  else
    let fusion =
      Fusion.fuse ?pin:options.pin ?filter_class:options.filter_class g
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

(* The exact-route residue of one epoch: the interned classification
   (so the next epoch's trees share untouched subtrees physically), the
   exact table of this epoch (what clean blocks splice and stable-id
   pre-copies read), and the memo recorded while computing it. The memo
   is strictly per-epoch — see [Sp_incremental]. *)
type exact_snap = {
  scls : Cs4.t;
  stable : Interval.t array;
  smemo : Sp_incremental.memo;
}

type snapshot = {
  sfp : int;
  salgo : algorithm;
  sbackend : backend;
  sexact : exact_snap option;
  slp : Lp.state option;
  splan : plan;
}

type cache = {
  builder : Sp_tree.Builder.t;
  clock : Mutex.t;
  mutable snap : snapshot option;
}

let cache_create () =
  {
    builder = Sp_tree.Builder.create ();
    clock = Mutex.create ();
    snap = None;
  }

let cache_plan cache =
  Mutex.lock cache.clock;
  let p = Option.map (fun s -> s.splan) cache.snap in
  Mutex.unlock cache.clock;
  p

let cache_fork cache =
  Mutex.lock cache.clock;
  let fork = { cache with snap = cache.snap } in
  Mutex.unlock cache.clock;
  fork

let algo_of = function
  | Propagation -> Sp_incremental.Prop
  | Non_propagation -> Sp_incremental.Nonprop
  | Relay_propagation -> Sp_incremental.Relay

let ladder_update = function
  | Propagation -> Ladder_prop.update
  | Non_propagation -> Ladder_nonprop.update
  | Relay_propagation -> Ladder_nonprop.update_relay

let block_edges = function
  | Cs4.Sp_block t -> Sp_tree.edges t
  | Cs4.Ladder_block l -> Ladder.edges l

let sorted_ids ids = List.sort Stdlib.compare ids

let intern_cls builder (cls : Cs4.t) =
  {
    cls with
    Cs4.blocks =
      List.map
        (fun (s, d, b) ->
          match b with
          | Cs4.Sp_block t ->
            (s, d, Cs4.Sp_block (Sp_tree.Builder.intern builder t))
          | Cs4.Ladder_block _ -> (s, d, b))
        cls.Cs4.blocks;
  }

(* a capacity-only edit leaves the record at a surviving id unchanged
   iff its capacity is *)
let same_record base (e : Graph.edge) =
  e.id < Graph.num_edges base && (Graph.edge base e.id).cap = e.cap

let refresh_block builder g = function
  | Cs4.Sp_block t -> Cs4.Sp_block (Sp_tree.Builder.refresh builder g t)
  | Cs4.Ladder_block l -> Cs4.Ladder_block (Ladder.refresh builder g l)

(* What the previous epoch lends the per-block loop. A block whose
   edges pass [clean] is the previous block's subgraph up to id
   translation, and block values are block-local, so it splices [vals]
   read at [origin] — no interval arithmetic at all. A recomputed SP
   block first pre-loads [vals] at the ids [precopy] accepts, then runs
   the memoized update against [memo]: subtrees physically shared with
   the previous tree and reached under an unchanged context skip
   wholesale, and a skip vouches for exactly the pre-loaded positions
   beneath it. A fresh compile borrows nothing. *)
type reuse = {
  vals : Interval.t array;
  memo : Sp_incremental.memo;
  clean : Graph.edge list -> bool;
  origin : int -> int;
  precopy : Graph.edge -> bool;
}

let no_reuse () =
  {
    vals = [||];
    memo = Sp_incremental.memo_create ();
    clean = (fun _ -> false);
    origin = Fun.id;
    precopy = (fun _ -> false);
  }

(* A capacity-only edit: every id survives in place, so a block is
   clean iff none of its edges is dirty, and a position pre-copies iff
   its record kept its capacity (a [Resize] back to the current
   capacity is marked dirty by the edit layer yet leaves the record —
   and so the hash-consed leaf and any memo hit over it — identical).
   No origin bookkeeping at all. *)
let in_place_reuse (delta : Edit.delta) pe =
  {
    vals = pe.stable;
    memo = pe.smemo;
    clean =
      List.for_all (fun (e : Graph.edge) -> not delta.Edit.dirty.(e.id));
    origin = Fun.id;
    precopy = same_record delta.Edit.base;
  }

(* Any other edit: origins come from the edit's edge map, and a block
   is clean when every edge is non-dirty with a surviving origin and
   the origin set is exactly one previous block's edge set. Pre-copy
   and memo are trusted only under stable ids — every base edge
   survives at its own id. This is deliberately stricter than "no
   survivor moved": a removal (or an in-place Add_stage replacement)
   makes it possible for a later op to recreate a record the previous
   memo still has entries for, and a memo hit would then vouch for a
   position the pre-copy never filled. With all base ids intact,
   appended edges have ids the previous epoch never used, so their
   records cannot alias any previous-epoch memo entry; and an in-place
   dirty edge can only come from [Resize], so [same_record] still
   decides. With shifted ids a dirty SP block recomputes fully
   against an empty memo (still recording this epoch's). *)
let remapped_reuse (delta : Edit.delta) pe =
  let rev = Hashtbl.create 64 in
  let stable = ref true in
  Array.iteri
    (fun o -> function
      | Some nid ->
        Hashtbl.replace rev nid o;
        if nid <> o then stable := false
      | None -> stable := false)
    delta.Edit.edge_map;
  let origin = Hashtbl.find_opt rev in
  let old_blocks = Hashtbl.create 16 in
  List.iter
    (fun (_, _, b) ->
      Hashtbl.replace old_blocks
        (sorted_ids (List.map (fun (e : Graph.edge) -> e.id) (block_edges b)))
        ())
    pe.scls.Cs4.blocks;
  {
    vals = pe.stable;
    memo = (if !stable then pe.smemo else Sp_incremental.memo_create ());
    clean =
      (fun edges ->
        List.for_all
          (fun (e : Graph.edge) ->
            (not delta.Edit.dirty.(e.id)) && origin e.id <> None)
          edges
        && Hashtbl.mem old_blocks
             (sorted_ids
                (List.filter_map (fun (e : Graph.edge) -> origin e.id) edges)));
    origin = (fun id -> Option.get (origin id));
    precopy = (fun e -> !stable && same_record delta.Edit.base e);
  }

(* The CS4 table, one serial block at a time: a clean block splices, a
   dirty SP block runs the memoized update (with nothing to reuse, a
   straight derivation of SETIVALS / SP Non-Propagation that records
   this epoch's memo), a dirty ladder block runs the classic sweep on a
   table still at [Inf] there, exactly the state it expects. [refresh]
   rebuilds a recomputed block against [g]'s records: the identity on a
   fresh classification, leaf substitution through the builder on the
   previous epoch's blocks. *)
let run_cs4 ~refresh algorithm g (cls : Cs4.t) r =
  let ivals = Array.make (Graph.num_edges g) Interval.inf in
  let next = Sp_incremental.memo_create () in
  let spliced = ref 0 and recomputed = ref 0 in
  let block (s, d, b) =
    let edges = block_edges b in
    if r.clean edges then begin
      List.iter
        (fun (e : Graph.edge) -> ivals.(e.id) <- r.vals.(r.origin e.id))
        edges;
      spliced := !spliced + List.length edges;
      (s, d, b)
    end
    else
      match refresh b with
      | Cs4.Sp_block tree as b ->
        Sp_tree.iter_edges tree (fun e ->
            if r.precopy e then ivals.(e.id) <- r.vals.(e.id));
        let rc, sk =
          Sp_incremental.update (algo_of algorithm) ~prev:r.memo ~next ivals
            tree
        in
        recomputed := !recomputed + rc;
        spliced := !spliced + sk;
        (s, d, b)
      | Cs4.Ladder_block lad as b ->
        ladder_update algorithm ivals lad;
        recomputed := !recomputed + List.length edges;
        (s, d, b)
  in
  let blocks = List.map block cls.Cs4.blocks in
  ({ scls = { cls with Cs4.blocks }; stable = ivals; smemo = next },
   !spliced, !recomputed)

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
   route starts from — the memo, the spliced blocks, the LP's warm
   basis — never which route runs. The previous epoch is usable only
   when it describes exactly the graph the edit script was applied to,
   under the same algorithm and backend; anything else is a fresh
   compile through the same builder (subtree sharing still helps,
   value reuse does not). *)
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
  let exact () =
    match in_place with
    | Some (d, pe) ->
      cs4
        (run_cs4 ~refresh:(refresh_block cache.builder g) algorithm g pe.scls
           (in_place_reuse d pe))
    | None -> (
      match Cs4.classify g with
      | Ok cls ->
        let reuse =
          match prev_exact with
          | Some (d, pe) -> remapped_reuse d pe
          | None -> no_reuse ()
        in
        cs4
          (run_cs4 ~refresh:Fun.id algorithm g
             (intern_cls cache.builder cls) reuse)
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
    let warm = Option.bind prev (fun (_, s) -> s.slp) in
    let d = Option.map fst prev in
    let intervals, st, state =
      Lp.resolve ?warm
        ?edge_map:(Option.map (fun d -> d.Edit.edge_map) d)
        ?node_map:(Option.map (fun d -> d.Edit.node_map) d)
        ?dirty:(Option.map (fun d -> d.Edit.dirty) d)
        g
    in
    let route =
      Lp_route { components = st.Lp.rcomponents; rows = st.Lp.rrows }
    in
    ({ algorithm; intervals; route; fused = None }, st, state)
  in
  let recheck = Option.is_none in_place in
  if recheck && not (Topo.is_dag g) then Error Not_a_dag
  else if recheck && not (Topo.connected g) then Error Disconnected
  else
    match if backend = Lp then Ok None else exact () with
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
  let on_cycle = Array.make (Graph.num_edges g) false in
  List.iter
    (fun comp ->
      match comp with
      | [] | [ _ ] -> ()
      | edges ->
        List.iter (fun (e : Graph.edge) -> on_cycle.(e.id) <- true) edges)
    (Articulation.biconnected_components g);
  Thresholds.of_array g
    (Array.mapi
       (fun i v ->
         match Interval.threshold v with
         | Some k -> Some k
         | None -> if on_cycle.(i) then Some 1 else None)
       intervals)
