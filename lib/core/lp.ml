open Fstream_graph

(* Components. Each cyclic biconnected component (two or more edges) is
   solved on its own, over local slots: its nodes in topological order,
   with each slot's out- and in-edges in ascending id. *)

type component = {
  cedges : Graph.edge array; (* ascending id *)
  cnodes : int array; (* graph node per slot, topologically sorted *)
  esrc : int array; (* slot of each cedge's source *)
  edst : int array; (* slot of each cedge's destination *)
  outs : int array array; (* cedge indices leaving each slot *)
  ins : int array array; (* cedge indices entering each slot *)
  supply : int array;
      (* a branch slot's (two or more outgoing component edges) smallest
         outgoing capacity minus one; -1 at every other slot *)
}

(* [rank] is a topological rank per node, [slot] a scratch array over
   the graph's nodes, -1 between calls *)
let component_of_edges rank slot edges =
  let cedges = Array.of_list edges in
  let seen = ref [] in
  let see v =
    if slot.(v) < 0 then begin
      slot.(v) <- 0;
      seen := v :: !seen
    end
  in
  Array.iter (fun (e : Graph.edge) -> see e.src; see e.dst) cedges;
  let cnodes = Array.of_list !seen in
  Array.sort (fun a b -> Int.compare rank.(a) rank.(b)) cnodes;
  Array.iteri (fun i v -> slot.(v) <- i) cnodes;
  let esrc = Array.map (fun (e : Graph.edge) -> slot.(e.src)) cedges in
  let edst = Array.map (fun (e : Graph.edge) -> slot.(e.dst)) cedges in
  Array.iter (fun v -> slot.(v) <- -1) cnodes;
  let n = Array.length cnodes in
  (* the edge indices at each slot, ascending *)
  let by ends =
    let lists = Array.make n [] in
    for k = Array.length ends - 1 downto 0 do
      lists.(ends.(k)) <- k :: lists.(ends.(k))
    done;
    Array.map Array.of_list lists
  in
  let outs = by esrc and ins = by edst in
  let supply =
    Array.map
      (fun ks ->
        if Array.length ks < 2 then -1
        else
          Array.fold_left
            (fun m k -> Stdlib.min m (cedges.(k).cap - 1))
            max_int ks)
      outs
  in
  { cedges; cnodes; esrc; edst; outs; ins; supply }

(* in order of their smallest edge id (each list is ascending) *)
let cycle_components ?thresholds name g =
  (match thresholds with
  | Some t when Array.length t <> Graph.num_edges g ->
    invalid_arg (name ^ ": threshold table length mismatch")
  | _ -> ());
  let rank =
    match Topo.order g with
    | Some order ->
      let rank = Array.make (Array.length order) 0 in
      Array.iteri (fun i v -> rank.(v) <- i) order;
      rank
    | None -> invalid_arg (name ^ ": the graph has a directed cycle")
  in
  let slot = Array.make (Graph.num_nodes g) (-1) in
  Articulation.biconnected_components g
  |> List.filter (function [] | [ _ ] -> false | _ -> true)
  |> List.map (fun edges -> ((List.hd edges).Graph.id, edges))
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (_, edges) -> component_of_edges rank slot edges)

(* --- the interval program ----------------------------------------- *)

(* The largest maximum-weight ancestor-closed subset of the [allowed]
   slots (an ancestor-closed set), slot [v] weighing out_v - in_v, and
   the augmenting paths it took. Picard: a source arc into every
   positive slot, a sink arc out of every negative one, and an
   uncuttable arc from each edge's head to its tail, carrying
   [flow.(k)]; the residual network crosses edge [k] upstream always
   and downstream while [flow.(k) > 0]. After a maximum flow by
   shortest augmenting paths, the slots that cannot reach the sink
   form the largest minimum cut's source side. *)
let max_closure c allowed =
  let n = Array.length c.cnodes in
  let w v =
    if allowed.(v) then Array.length c.outs.(v) - Array.length c.ins.(v)
    else 0
  in
  let source = Array.init n (fun v -> Stdlib.max (w v) 0) in
  let sink = Array.init n (fun v -> Stdlib.max (-w v) 0) in
  let flow = Array.make (Array.length c.cedges) 0 in
  (* [via.(v)]: [2k] if reached up edge [k], [2k + 1] down it, -2 for
     a root, -1 if unreached *)
  let via = Array.make n (-1) and queue = Array.make n 0 in
  let search roots ~up ~down =
    Array.fill via 0 n (-1);
    let len = ref 0 in
    let reach v step =
      if via.(v) = -1 then begin
        via.(v) <- step;
        queue.(!len) <- v;
        incr len
      end
    in
    Array.iteri (fun v x -> if x > 0 then reach v (-2)) roots;
    let i = ref 0 in
    while !i < !len do
      let u = queue.(!i) in
      incr i;
      Array.iter (fun k -> if up k then reach c.esrc.(k) (2 * k)) c.ins.(u);
      Array.iter
        (fun k -> if down k then reach c.edst.(k) ((2 * k) + 1))
        c.outs.(u)
    done;
    !len
  in
  let rec augment paths =
    let len = search source ~up:(fun _ -> true) ~down:(fun k -> flow.(k) > 0) in
    let rec first_sink i =
      if i = len then -1
      else if sink.(queue.(i)) > 0 then queue.(i)
      else first_sink (i + 1)
    in
    match first_sink 0 with
    | -1 -> paths
    | t ->
      (* the path runs back from [t] to its root *)
      let rec bottleneck v f =
        match via.(v) with
        | -2 -> Stdlib.min f source.(v)
        | step when step land 1 = 0 -> bottleneck c.edst.(step / 2) f
        | step -> bottleneck c.esrc.(step / 2) (Stdlib.min f flow.(step / 2))
      in
      let rec push v f =
        match via.(v) with
        | -2 -> source.(v) <- source.(v) - f
        | step ->
          let k = step / 2 and up = step land 1 = 0 in
          flow.(k) <- (if up then flow.(k) + f else flow.(k) - f);
          push (if up then c.edst.(k) else c.esrc.(k)) f
      in
      let f = bottleneck t sink.(t) in
      push t f;
      sink.(t) <- sink.(t) - f;
      augment (paths + 1)
  in
  let paths = augment 0 in
  (* backwards from the sink arcs: the arc into a reached slot runs
     from the head of an edge leaving it, or from the tail of an edge
     entering it that carries flow (slots outside [allowed] reached
     this way are descendants, and lead only to descendants) *)
  ignore (search sink ~up:(fun k -> flow.(k) > 0) ~down:(fun _ -> true));
  (Array.init n (fun v -> allowed.(v) && via.(v) = -1), paths)

(* The componentwise-greatest optimal D (see the interface), with the
   augmenting paths it took. A level k's set {v : D_v >= k} is the
   largest maximum-weight closure among the slots outside the
   descendants of every branch whose bound is below k; the sets nest,
   so each is searched inside the one before, once per distinct bound. *)
let solve_component c ivals =
  let n = Array.length c.cnodes in
  let d = Array.make n 0 and allowed = Array.make n true in
  (* a slot outside [allowed] has all its descendants outside too *)
  let rec forbid v =
    if allowed.(v) then begin
      allowed.(v) <- false;
      Array.iter (fun k -> forbid c.edst.(k)) c.outs.(v)
    end
  in
  let branches =
    List.filter (fun v -> c.supply.(v) >= 0) (List.init n Fun.id)
    |> List.stable_sort (fun a b -> Int.compare c.supply.(a) c.supply.(b))
  in
  let rec levels prev paths = function
    | [] -> paths
    | s :: rest when c.supply.(s) <= prev ->
      forbid s;
      levels prev paths rest
    | s :: _ as bs when Array.exists Fun.id allowed ->
      let bound = c.supply.(s) in
      let set, p = max_closure c allowed in
      Array.iteri
        (fun v inside ->
          if inside then d.(v) <- d.(v) + bound - prev
          else allowed.(v) <- false)
        set;
      levels bound (paths + p) bs
    | _ -> paths
  in
  let paths = levels 0 0 branches in
  Array.iteri
    (fun k (e : Graph.edge) ->
      ivals.(e.id) <- Interval.of_int (1 + d.(c.esrc.(k)) - d.(c.edst.(k))))
    c.cedges;
  paths

type resolve_stats = { rcomponents : int; rrows : int; rpivots : int }

let resolve g =
  let comps = cycle_components "Lp.resolve" g in
  let ivals = Array.make (Graph.num_edges g) Interval.inf in
  let rows = ref 0 and paths = ref 0 in
  List.iter
    (fun c ->
      rows :=
        !rows + Array.length c.cedges
        + Array.fold_left (fun k s -> if s >= 0 then k + 1 else k) 0 c.supply;
      paths := !paths + solve_component c ivals)
    comps;
  (ivals, { rcomponents = List.length comps; rrows = !rows; rpivots = !paths })

(* --- a supplied table: demands, dimensioning, audit ---------------- *)

(* The demand a slot can push down component paths: the longest path
   of (t - 1) over outgoing finite-threshold component edges. A [None]
   threshold never forces a dummy, so it does not extend a chain. *)
let demands c thresholds =
  let demand = Array.make (Array.length c.cnodes) 0 in
  for v = Array.length c.cnodes - 1 downto 0 do
    Array.iter
      (fun k ->
        match thresholds.(c.cedges.(k).id) with
        | None -> ()
        | Some t ->
          demand.(v) <- Stdlib.max demand.(v) (t - 1 + demand.(c.edst.(k))))
      c.outs.(v)
  done;
  demand

let min_buffers g ~thresholds =
  let comps = cycle_components ~thresholds "Lp.min_buffers" g in
  let caps = Array.make (Graph.num_edges g) 1 in
  List.iter
    (fun c ->
      let demand = demands c thresholds in
      Array.iteri
        (fun k (e : Graph.edge) ->
          let s = c.esrc.(k) in
          if c.supply.(s) >= 0 then caps.(e.id) <- 1 + demand.(s))
        c.cedges)
    comps;
  caps

type witness = {
  wnode : Graph.node;
  wedges : Graph.edge list;
  wdemand : int;
  wsupply : int;
}

let pp_witness ppf w =
  Format.fprintf ppf
    "node %d: demand chain %a carries %d dummy slot%s but the cheapest \
     opposing channel supplies only %d"
    w.wnode
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
       (fun ppf (e : Graph.edge) -> Format.fprintf ppf "e%d" e.id))
    w.wedges w.wdemand
    (if w.wdemand = 1 then "" else "s")
    w.wsupply

(* The chain out of slot [v]: its first (lowest-id) out-edge that
   attains the demand, then on from that edge's head, until the demand
   left is zero. *)
let witness_at c thresholds demand v =
  let rec chain v =
    let attains k =
      match thresholds.(c.cedges.(k).id) with
      | Some t -> t - 1 + demand.(c.edst.(k)) = demand.(v)
      | None -> false
    in
    match List.find_opt attains (Array.to_list c.outs.(v)) with
    | Some k when demand.(v) > 0 -> c.cedges.(k) :: chain c.edst.(k)
    | _ -> []
  in
  { wnode = c.cnodes.(v); wedges = chain v; wdemand = demand.(v);
    wsupply = c.supply.(v) }

let audit g ~thresholds =
  let comps = cycle_components ~thresholds "Lp.audit" g in
  let rec first_violation = function
    | [] -> Ok ()
    | c :: rest -> (
      let demand = demands c thresholds in
      (* the overloaded branch of lowest node id *)
      let worst = ref (-1) in
      Array.iteri
        (fun v node ->
          if c.supply.(v) >= 0 && demand.(v) > c.supply.(v)
             && (!worst < 0 || node < c.cnodes.(!worst))
          then worst := v)
        c.cnodes;
      match !worst with
      | -1 -> first_violation rest
      | v -> Error (witness_at c thresholds demand v))
  in
  first_violation comps
