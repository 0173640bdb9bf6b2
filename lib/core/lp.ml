open Fstream_graph
module R = Rational

(* ------------------------------------------------------------------ *)
(* Dense simplex over exact rationals.

   One tableau, one pivot, one primal and one dual loop, all under
   Bland's smallest-index rule (entering column and leaving-row ties),
   so cycling is impossible and termination needs no perturbation. The
   tableau is dense: the programs this module builds have a few hundred
   rows at the bench's largest sizes, where a revised/sparse
   implementation would be complexity without payoff. *)
module Simplex = struct
  type outcome =
    | Optimal of {
        objective : R.t;
        primal : R.t array;
        dual : R.t array;
      }
    | Unbounded
    | Infeasible of { farkas : R.t array }

  type solution = {
    outcome : outcome;
    basis : int array;
    pivots : int;
    warm : bool;
  }

  (* [tab.(i)] holds row i over the columns and its right-hand side in
     the last slot; [basis.(i)] is its basic column. A row phase 1
     proves redundant is dead: no pivot reads or updates it again. *)
  type tableau = {
    tab : R.t array array;
    basis : int array;
    live : bool array;
  }

  let maximize ?hint ~objective ~rows () =
    let n = Array.length objective in
    let m = Array.length rows in
    Array.iter
      (fun (a, _) ->
        if Array.length a <> n then
          invalid_arg "Lp.Simplex.maximize: coefficient row length")
      rows;
    (* Rows with a negative right-hand side are negated (so the RHS is
       positive) and given an artificial variable; phase 1 drives the
       artificials to zero or proves the program empty. Columns:
       [0, n) structural, [n, n + m) slack, [n + m, ncols) artificial. *)
    let negated = Array.map (fun (_, b) -> R.sign b < 0) rows in
    let art_index = Array.make m (-1) in
    let ncols = ref (n + m) in
    Array.iteri
      (fun i v ->
        if v then begin
          art_index.(i) <- !ncols;
          incr ncols
        end)
      negated;
    let ncols = !ncols in
    let pivots = ref 0 in
    let fresh () =
      let tab =
        Array.init m (fun i ->
            let a, b = rows.(i) in
            let row = Array.make (ncols + 1) R.zero in
            let s = if negated.(i) then R.minus_one else R.one in
            for j = 0 to n - 1 do
              row.(j) <- R.mul s a.(j)
            done;
            row.(n + i) <- s;
            if negated.(i) then row.(art_index.(i)) <- R.one;
            row.(ncols) <- R.mul s b;
            row)
      in
      let basis =
        Array.init m (fun i -> if negated.(i) then art_index.(i) else n + i)
      in
      { tab; basis; live = Array.make m true }
    in
    (* An objective row holds reduced costs and, in its RHS slot, -z, so
       the ordinary row update maintains it. Phase 1 and phase 2 price
       different objectives over one tableau. *)
    let pivot t obj ~pr ~pc =
      incr pivots;
      let prow = t.tab.(pr) in
      let d = prow.(pc) in
      for j = 0 to ncols do
        prow.(j) <- R.div prow.(j) d
      done;
      let elim row =
        let f = row.(pc) in
        if not (R.is_zero f) then
          for j = 0 to ncols do
            row.(j) <- R.sub row.(j) (R.mul f prow.(j))
          done
      in
      Array.iteri (fun i row -> if t.live.(i) && i <> pr then elim row) t.tab;
      elim obj;
      t.basis.(pr) <- pc
    in
    let improving obj ~max_col =
      let rec go j =
        if j >= max_col then -1
        else if R.sign obj.(j) > 0 then j
        else go (j + 1)
      in
      go 0
    in
    let rec primal t obj ~max_col =
      let pc = improving obj ~max_col in
      if pc < 0 then `Optimal
      else begin
        let pr = ref (-1) in
        for i = 0 to m - 1 do
          if t.live.(i) && R.sign t.tab.(i).(pc) > 0 then
            if !pr < 0 then pr := i
            else begin
              let cur = R.div t.tab.(!pr).(ncols) t.tab.(!pr).(pc) in
              let cand = R.div t.tab.(i).(ncols) t.tab.(i).(pc) in
              let c = R.compare cand cur in
              if c < 0 || (c = 0 && t.basis.(i) < t.basis.(!pr)) then pr := i
            end
        done;
        if !pr < 0 then `Unbounded
        else begin
          pivot t obj ~pr:!pr ~pc;
          primal t obj ~max_col
        end
      end
    in
    (* Bland for the dual: leave the negative-RHS row whose basic
       variable has the smallest index; enter the column minimizing
       obj_j / a_rj over a_rj < 0 (both non-positive, so the ratio is
       >= 0), ties to the smallest column. *)
    let rec dual t obj =
      let pr = ref (-1) in
      for i = 0 to m - 1 do
        if t.live.(i) && R.sign t.tab.(i).(ncols) < 0
           && (!pr < 0 || t.basis.(i) < t.basis.(!pr))
        then pr := i
      done;
      if !pr < 0 then `Feasible
      else begin
        let pr = !pr in
        let pc = ref (-1) and best = ref R.zero in
        for j = 0 to ncols - 1 do
          if R.sign t.tab.(pr).(j) < 0 then begin
            let ratio = R.div obj.(j) t.tab.(pr).(j) in
            if !pc < 0 || R.compare ratio !best < 0 then begin
              pc := j;
              best := ratio
            end
          end
        done;
        if !pc < 0 then `Stuck
        else begin
          pivot t obj ~pr ~pc:!pc;
          dual t obj
        end
      end
    in
    (* Phase 1 maximizes minus the sum of the artificials. [Some farkas]
       proves the program empty; [None] leaves [t] on a feasible basis
       of real columns, with redundant rows dead. *)
    let phase1 t =
      let obj1 = Array.make (ncols + 1) R.zero in
      for j = n + m to ncols - 1 do
        obj1.(j) <- R.minus_one
      done;
      (* price out the basic artificials (cost -1 each) *)
      Array.iteri
        (fun i row ->
          if negated.(i) then
            for j = 0 to ncols do
              obj1.(j) <- R.add obj1.(j) row.(j)
            done)
        t.tab;
      match primal t obj1 ~max_col:ncols with
      | `Unbounded -> assert false (* phase-1 objective is <= 0 *)
      | `Optimal when R.sign obj1.(ncols) > 0 ->
        (* Farkas multipliers from the phase-1 reduced costs: the
           multiplier of original row i sits on its initial basis
           column, adjusted for the row's sign flip. *)
        Some
          (Array.init m (fun i ->
               if negated.(i) then R.add R.one obj1.(art_index.(i))
               else R.neg obj1.(n + i)))
      | `Optimal ->
        (* drive leftover zero-level artificials out of the basis; an
           all-zero row (over real columns) is redundant *)
        for i = 0 to m - 1 do
          if t.live.(i) && t.basis.(i) >= n + m then begin
            let rec nonzero c =
              if c >= n + m then -1
              else if R.sign t.tab.(i).(c) <> 0 then c
              else nonzero (c + 1)
            in
            let j = nonzero 0 in
            if j >= 0 then pivot t obj1 ~pr:i ~pc:j else t.live.(i) <- false
          end
        done;
        None
    in
    (* the phase-2 objective row, priced out against [t]'s basis *)
    let price t =
      let obj = Array.make (ncols + 1) R.zero in
      Array.blit objective 0 obj 0 n;
      Array.iteri
        (fun i row ->
          if t.live.(i) && t.basis.(i) < n then begin
            let cb = objective.(t.basis.(i)) in
            if R.sign cb <> 0 then
              for j = 0 to ncols do
                obj.(j) <- R.sub obj.(j) (R.mul cb row.(j))
              done
          end)
        t.tab;
      obj
    in
    let finish ~warm t obj =
      let outcome =
        match primal t obj ~max_col:(n + m) with
        | `Unbounded -> Unbounded
        | `Optimal ->
          let primal = Array.make n R.zero in
          Array.iteri
            (fun i b ->
              if t.live.(i) && b < n then primal.(b) <- t.tab.(i).(ncols))
            t.basis;
          let dual =
            Array.init m (fun i ->
                if negated.(i) then obj.(art_index.(i)) else R.neg obj.(n + i))
          in
          Optimal { objective = R.neg obj.(ncols); primal; dual }
      in
      { outcome; basis = t.basis; pivots = !pivots; warm }
    in
    let cold () =
      let t = fresh () in
      match if ncols > n + m then phase1 t else None with
      | Some farkas ->
        { outcome = Infeasible { farkas }; basis = t.basis; pivots = !pivots;
          warm = false }
      | None -> finish ~warm:false t (price t)
    in
    (* The crash: pivot each row's suggested column in, where it is not
       basic elsewhere and the pivot element is nonzero. A basis that
       lands primal-feasible goes straight to phase 2; a dual-feasible
       one (the typical case after a capacity change: the old optimum
       still prices out, only some right-hand sides went negative) is
       repaired by the dual loop first. Anything else abandons the hint;
       its pivots still count. *)
    let warm_start hint =
      let t = fresh () in
      let obj = price t in
      Array.iteri
        (fun i c ->
          if c >= 0 && c < ncols && t.basis.(i) <> c
             && (not (Array.mem c t.basis))
             && R.sign t.tab.(i).(c) <> 0
          then pivot t obj ~pr:i ~pc:c)
        hint;
      if Array.for_all (fun row -> R.sign row.(ncols) >= 0) t.tab
         || (improving obj ~max_col:ncols < 0 && dual t obj = `Feasible)
      then Some (finish ~warm:true t obj)
      else None
    in
    match hint with
    | Some hint when ncols = n + m && Array.length hint = m -> (
      match warm_start hint with Some s -> s | None -> cold ())
    | _ -> cold ()
end

(* ------------------------------------------------------------------ *)
(* The deadlock-avoidance encoding (see the interface comment for the
   constraint system and the conservativeness argument). *)

(* Per-component bookkeeping shared by the three entry points: local
   contiguous indices for the component's edges and nodes, and the
   branching nodes (two or more outgoing component edges) with the
   minimum outgoing capacity the run-sum discipline compares against. *)
type component = {
  cedges : Graph.edge array;
  cnodes : int array; (* component nodes, ascending *)
  node_slot : (int, int) Hashtbl.t; (* node -> local index *)
  branches : (int * int) list; (* (node, min outgoing cap in component) *)
}

let component_of_edges edges =
  let cedges = Array.of_list edges in
  let node_set = Hashtbl.create 16 in
  Array.iter
    (fun (e : Graph.edge) ->
      Hashtbl.replace node_set e.src ();
      Hashtbl.replace node_set e.dst ())
    cedges;
  let cnodes =
    Hashtbl.fold (fun v () acc -> v :: acc) node_set []
    |> List.sort Stdlib.compare |> Array.of_list
  in
  let node_slot = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.add node_slot v i) cnodes;
  let out_count = Hashtbl.create 16 and out_min = Hashtbl.create 16 in
  Array.iter
    (fun (e : Graph.edge) ->
      let k =
        match Hashtbl.find_opt out_count e.src with Some k -> k | None -> 0
      in
      Hashtbl.replace out_count e.src (k + 1);
      let m =
        match Hashtbl.find_opt out_min e.src with
        | Some m -> Stdlib.min m e.cap
        | None -> e.cap
      in
      Hashtbl.replace out_min e.src m)
    cedges;
  let branches =
    Array.to_list cnodes
    |> List.filter_map (fun v ->
           match Hashtbl.find_opt out_count v with
           | Some k when k >= 2 -> Some (v, Hashtbl.find out_min v)
           | _ -> None)
  in
  { cedges; cnodes; node_slot; branches }

let cycle_components g =
  Articulation.biconnected_components g
  |> List.filter (fun edges -> match edges with [] | [ _ ] -> false | _ -> true)
  |> List.map component_of_edges

let require_dag name g =
  if not (Topo.is_dag g) then invalid_arg (name ^ ": the graph has a directed cycle")

let require_table name g thresholds =
  if Array.length thresholds <> Graph.num_edges g then
    invalid_arg (name ^ ": threshold table length mismatch")

(* --- the interval LP ---------------------------------------------- *)

(* The row layout every interval program uses, in a fixed order the
   warm-start translation relies on: one chain row per component edge
   (cedge order), one branch row per branching node (branch order),
   then the aggregate box row. Columns: x_e per cedge, then D_v per
   cnode, then one slack per row. *)
let interval_rows c =
  let me = Array.length c.cedges and nv = Array.length c.cnodes in
  let nvars = me + nv in
  let dvar v = me + Hashtbl.find c.node_slot v in
  let rows = ref [] in
  let add_row a b = rows := (a, b) :: !rows in
  (* chain rows: x_e + D_dst - D_src <= 0 *)
  Array.iteri
    (fun k (e : Graph.edge) ->
      let a = Array.make nvars R.zero in
      a.(k) <- R.one;
      a.(dvar e.dst) <- R.add a.(dvar e.dst) R.one;
      a.(dvar e.src) <- R.sub a.(dvar e.src) R.one;
      add_row a R.zero)
    c.cedges;
  (* branch rows: D_s <= min outgoing cap - 1 *)
  List.iter
    (fun (s, min_cap) ->
      let a = Array.make nvars R.zero in
      a.(dvar s) <- R.one;
      add_row a (R.of_int (min_cap - 1)))
    c.branches;
  (* one aggregate box row keeps the objective bounded *)
  let total_cap =
    Array.fold_left (fun acc (e : Graph.edge) -> acc + e.cap) 0 c.cedges
  in
  let box = Array.make nvars R.zero in
  Array.iteri (fun k _ -> box.(k) <- R.one) c.cedges;
  add_row box (R.of_int total_cap);
  let rows = Array.of_list (List.rev !rows) in
  let objective = Array.make nvars R.zero in
  Array.iteri (fun k _ -> objective.(k) <- R.one) c.cedges;
  (rows, objective)

let interval_of_primal p =
  let iv = R.add R.one p in
  match R.to_int_pair iv with
  | Some (num, den) when num > 0 -> Interval.ratio num den
  | _ -> Interval.of_int (Stdlib.max 1 (R.floor iv))

type comp_state = {
  sedges : int array; (* graph edge ids, cedge order *)
  snodes : int array; (* graph node ids, cnode order *)
  sbranches : int array; (* branching node per branch row, row order *)
  svals : Interval.t array; (* solved interval per cedge *)
  sbasis : int array; (* basic column per row of the solved tableau *)
}

type state = comp_state list

type resolve_stats = {
  rcomponents : int;
  rrows : int;
  rspliced : int;
  rwarm : int;
  rcold : int;
  rpivots : int;
}

(* Map the previous optimum's basis into the edited component's column
   space: x columns follow the surviving edge, D columns follow the
   surviving node, slack columns follow their row (chain rows by edge,
   branch rows by node, box row by position). Anything that did not
   survive translates to no hint for that row. *)
let translate_basis (d : Edit.delta) (oc : comp_state) c =
  let me_o = Array.length oc.sedges and nv_o = Array.length oc.snodes in
  let nb_o = Array.length oc.sbranches in
  let nvars_o = me_o + nv_o in
  let nrows_o = me_o + nb_o + 1 in
  let me_n = Array.length c.cedges in
  let nb_n = List.length c.branches in
  let nvars_n = me_n + Array.length c.cnodes in
  let nrows_n = me_n + nb_n + 1 in
  let xcol = Hashtbl.create 16 in
  Array.iteri (fun k (e : Graph.edge) -> Hashtbl.add xcol e.id k) c.cedges;
  let branchrow = Hashtbl.create 16 in
  List.iteri (fun i (s, _) -> Hashtbl.add branchrow s (me_n + i)) c.branches;
  let new_row r =
    if r < me_o then
      (* chain row of old edge *)
      Option.bind d.edge_map.(oc.sedges.(r)) (Hashtbl.find_opt xcol)
    else if r < me_o + nb_o then
      Option.bind
        d.node_map.(oc.sbranches.(r - me_o))
        (Hashtbl.find_opt branchrow)
    else Some (nrows_n - 1)
  in
  let new_col col =
    if col < me_o then
      Option.bind d.edge_map.(oc.sedges.(col)) (Hashtbl.find_opt xcol)
    else if col < nvars_o then
      Option.bind d.node_map.(oc.snodes.(col - me_o)) (fun v ->
          Option.map (fun slot -> me_n + slot) (Hashtbl.find_opt c.node_slot v))
    else Option.map (fun r' -> nvars_n + r') (new_row (col - nvars_o))
  in
  let hint = Array.make nrows_n (-1) in
  for r = 0 to nrows_o - 1 do
    match new_row r with
    | Some r' -> (
      match new_col oc.sbasis.(r) with
      | Some c' -> hint.(r') <- c'
      | None -> ())
    | None -> ()
  done;
  hint

let resolve ?warm g =
  require_dag "Lp.resolve" g;
  let ivals = Array.make (Graph.num_edges g) Interval.inf in
  let comps = cycle_components g in
  (* the previous components, and where each current one comes from *)
  let ancestry =
    match warm with
    | None -> fun _ -> None
    | Some (state, d) ->
      let olds = Array.of_list state in
      let of_block =
        Edit.ancestry d
          ~base:(List.map (fun oc -> Array.to_list oc.sedges) state)
      in
      fun ids ->
        Option.map
          (fun (a : Edit.ancestry) -> (d, olds.(a.ancestor), a.unedited))
          (of_block (Array.to_list ids))
  in
  let rows = ref 0 and spliced = ref 0 and warmed = ref 0 and cold = ref 0 in
  let pivots = ref 0 in
  let solve c =
    let ids = Array.map (fun (e : Graph.edge) -> e.id) c.cedges in
    rows := !rows + Array.length ids + List.length c.branches + 1;
    let lineage = ancestry ids in
    let svals, sbasis =
      match lineage with
      | Some (d, oc, true) ->
        (* an unedited copy: its program is the ancestor's, so is its
           optimum — splice it, zero pivots *)
        incr spliced;
        let pos = Hashtbl.create 16 in
        Array.iteri (fun k oe -> Hashtbl.add pos oe k) oc.sedges;
        let origin id = Option.get d.Edit.origin.(id) in
        ( Array.map (fun id -> oc.svals.(Hashtbl.find pos (origin id))) ids,
          translate_basis d oc c )
      | _ -> (
        let rows, objective = interval_rows c in
        let hint =
          Option.map (fun (d, oc, _) -> translate_basis d oc c) lineage
        in
        let s = Simplex.maximize ?hint ~objective ~rows () in
        pivots := !pivots + s.pivots;
        incr (if s.warm then warmed else cold);
        match s.outcome with
        | Simplex.Optimal { primal; _ } ->
          (Array.mapi (fun k _ -> interval_of_primal primal.(k)) ids, s.basis)
        | Simplex.Unbounded | Simplex.Infeasible _ ->
          assert false (* the origin is feasible, the box row bounds sum x *))
    in
    Array.iteri (fun k id -> ivals.(id) <- svals.(k)) ids;
    {
      sedges = ids;
      snodes = Array.copy c.cnodes;
      sbranches = Array.of_list (List.map fst c.branches);
      svals;
      sbasis;
    }
  in
  let state = List.map solve comps in
  ( ivals,
    {
      rcomponents = List.length comps;
      rrows = !rows;
      rspliced = !spliced;
      rwarm = !warmed;
      rcold = !cold;
      rpivots = !pivots;
    },
    state )

(* --- dimensioning: minimal capacities for a given table ----------- *)

(* Demand a node can push down component paths: max over outgoing
   finite-threshold component edges of (t - 1) + demand (dst). A [None]
   threshold never forces a dummy, so it does not extend a chain. *)
let component_demands c thresholds =
  let nv = Array.length c.cnodes in
  let demand = Array.make nv 0 in
  let out = Array.make nv [] in
  Array.iter
    (fun (e : Graph.edge) ->
      let s = Hashtbl.find c.node_slot e.src in
      out.(s) <- e :: out.(s))
    c.cedges;
  let memo = Array.make nv (-1) in
  let rec go v =
    if memo.(v) >= 0 then memo.(v)
    else begin
      (* the component graph is a sub-DAG: recursion terminates *)
      memo.(v) <- 0;
      let best = ref 0 in
      List.iter
        (fun (e : Graph.edge) ->
          match thresholds.(e.id) with
          | None -> ()
          | Some t ->
            let d = t - 1 + go (Hashtbl.find c.node_slot e.dst) in
            if d > !best then best := d)
        out.(v);
      memo.(v) <- !best;
      !best
    end
  in
  Array.iteri (fun v _ -> demand.(v) <- go v) c.cnodes;
  demand

let min_buffers g ~thresholds =
  require_dag "Lp.min_buffers" g;
  require_table "Lp.min_buffers" g thresholds;
  let caps = Array.make (Graph.num_edges g) 1 in
  List.iter
    (fun c ->
      let me = Array.length c.cedges and nv = Array.length c.cnodes in
      (* variables: y_e = cap_e - 1 per component edge, then D_v *)
      let nvars = me + nv in
      let dvar v = me + Hashtbl.find c.node_slot v in
      let rows = ref [] in
      let add_row a b = rows := (a, b) :: !rows in
      Array.iteri
        (fun _k (e : Graph.edge) ->
          match thresholds.(e.id) with
          | None -> ()
          | Some t ->
            (* D_dst - D_src <= -(t - 1) *)
            let a = Array.make nvars R.zero in
            a.(dvar e.dst) <- R.add a.(dvar e.dst) R.one;
            a.(dvar e.src) <- R.sub a.(dvar e.src) R.one;
            add_row a (R.of_int (1 - t)))
        c.cedges;
      let branch_nodes =
        List.map fst c.branches |> List.sort_uniq Stdlib.compare
      in
      Array.iteri
        (fun k (e : Graph.edge) ->
          if List.mem e.src branch_nodes then begin
            (* D_src - y_e <= 0 *)
            let a = Array.make nvars R.zero in
            a.(dvar e.src) <- R.one;
            a.(k) <- R.minus_one;
            add_row a R.zero
          end)
        c.cedges;
      let rows = Array.of_list (List.rev !rows) in
      let objective = Array.make nvars R.zero in
      Array.iteri (fun k _ -> objective.(k) <- R.minus_one) c.cedges;
      match (Simplex.maximize ~objective ~rows ()).outcome with
      | Simplex.Optimal { primal; _ } ->
        Array.iteri
          (fun k (e : Graph.edge) -> caps.(e.id) <- 1 + R.ceil primal.(k))
          c.cedges
      | Simplex.Unbounded -> assert false (* objective is -sum y <= 0 *)
      | Simplex.Infeasible _ -> assert false (* y large enough always fits *))
    (cycle_components g);
  caps

(* --- auditing a supplied table ------------------------------------ *)

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

(* Reconstruct the violating demand chain by DP argmax from the
   overloaded branch node. Infeasibility of the audit program is
   exactly "some branch node's demand exceeds its cheapest outgoing
   capacity minus one", so this always finds a chain; the Farkas
   certificate tells us which branch node to start from. *)
let witness_from c thresholds s supply =
  let slot v = Hashtbl.find c.node_slot v in
  let demand = component_demands c thresholds in
  let rec chain v =
    if demand.(slot v) = 0 then []
    else
      let best = ref None in
      Array.iter
        (fun (e : Graph.edge) ->
          if e.src = v then
            match thresholds.(e.id) with
            | None -> ()
            | Some t ->
              let d = t - 1 + demand.(slot e.dst) in
              if d = demand.(slot v) && !best = None then best := Some e)
        c.cedges;
      match !best with
      | None -> []
      | Some e -> e :: chain e.dst
  in
  { wnode = s; wedges = chain s; wdemand = demand.(slot s); wsupply = supply }

let audit g ~thresholds =
  require_dag "Lp.audit" g;
  require_table "Lp.audit" g thresholds;
  let rec first_violation = function
    | [] -> Ok ()
    | c :: rest -> (
      let nv = Array.length c.cnodes in
      let dvar v = Hashtbl.find c.node_slot v in
      let rows = ref [] and tags = ref [] in
      let add_row tag a b =
        rows := (a, b) :: !rows;
        tags := tag :: !tags
      in
      Array.iter
        (fun (e : Graph.edge) ->
          match thresholds.(e.id) with
          | None -> ()
          | Some t ->
            let a = Array.make nv R.zero in
            a.(dvar e.dst) <- R.add a.(dvar e.dst) R.one;
            a.(dvar e.src) <- R.sub a.(dvar e.src) R.one;
            add_row `Chain a (R.of_int (1 - t)))
        c.cedges;
      List.iter
        (fun (s, min_cap) ->
          let a = Array.make nv R.zero in
          a.(dvar s) <- R.one;
          add_row (`Branch (s, min_cap - 1)) a (R.of_int (min_cap - 1)))
        c.branches;
      let rows = Array.of_list (List.rev !rows) in
      let tags = Array.of_list (List.rev !tags) in
      let objective = Array.make nv R.zero in
      match (Simplex.maximize ~objective ~rows ()).outcome with
      | Simplex.Optimal _ -> first_violation rest
      | Simplex.Unbounded -> assert false (* zero objective *)
      | Simplex.Infeasible { farkas } ->
        (* the certificate's positive branch row names the overloaded
           node; decode it into a concrete chain *)
        let branch = ref None in
        Array.iteri
          (fun i y ->
            if R.sign y > 0 && !branch = None then
              match tags.(i) with
              | `Branch (s, supply) -> branch := Some (s, supply)
              | `Chain -> ())
          farkas;
        let s, supply =
          match !branch with
          | Some sv -> sv
          | None ->
            (* degenerate certificate: fall back to scanning branches *)
            let demand = component_demands c thresholds in
            List.find
              (fun (s, min_cap) ->
                demand.(Hashtbl.find c.node_slot s) > min_cap - 1)
              c.branches
            |> fun (s, min_cap) -> (s, min_cap - 1)
        in
        Error (witness_from c thresholds s supply))
  in
  first_violation (cycle_components g)
