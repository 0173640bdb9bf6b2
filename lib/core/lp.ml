open Fstream_graph
module R = Rational

(* ------------------------------------------------------------------ *)
(* Dense two-phase primal simplex over exact rationals.

   Bland's smallest-index rule everywhere (entering column and
   leaving-row ties), so cycling is impossible and termination needs
   no perturbation. The tableau is dense: the programs this module
   builds have a few hundred rows at the bench's largest sizes, where
   a revised/sparse implementation would be complexity without
   payoff. *)
module Simplex = struct
  type outcome =
    | Optimal of {
        objective : R.t;
        primal : R.t array;
        dual : R.t array;
      }
    | Unbounded
    | Infeasible of { farkas : R.t array }

  let maximize ~objective ~rows =
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
       [0, n) structural, [n, n + m) slack, [n + m, ...) artificial. *)
    let negated = Array.map (fun (_, b) -> R.sign b < 0) rows in
    let nart = Array.fold_left (fun k v -> if v then k + 1 else k) 0 negated in
    let ncols = n + m + nart in
    let art_index = Array.make m (-1) in
    let next_art = ref (n + m) in
    Array.iteri
      (fun i v ->
        if v then begin
          art_index.(i) <- !next_art;
          incr next_art
        end)
      negated;
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
    let basis = Array.init m (fun i -> if negated.(i) then art_index.(i) else n + i) in
    let live = Array.make m true in
    (* the objective row holds reduced costs; its RHS slot holds -z so
       the ordinary row update maintains it *)
    let pivot obj ~pr ~pc =
      let prow = tab.(pr) in
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
      Array.iteri (fun i row -> if live.(i) && i <> pr then elim row) tab;
      elim obj;
      basis.(pr) <- pc
    in
    let run obj ~max_col =
      let rec loop () =
        let pc = ref (-1) in
        (try
           for j = 0 to max_col - 1 do
             if R.sign obj.(j) > 0 then begin
               pc := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !pc < 0 then `Optimal
        else begin
          let pc = !pc in
          let pr = ref (-1) in
          for i = 0 to m - 1 do
            if live.(i) && R.sign tab.(i).(pc) > 0 then
              if !pr < 0 then pr := i
              else begin
                let cur = R.div tab.(!pr).(ncols) tab.(!pr).(pc) in
                let cand = R.div tab.(i).(ncols) tab.(i).(pc) in
                let c = R.compare cand cur in
                if c < 0 || (c = 0 && basis.(i) < basis.(!pr)) then pr := i
              end
          done;
          if !pr < 0 then `Unbounded
          else begin
            pivot obj ~pr:!pr ~pc;
            loop ()
          end
        end
      in
      loop ()
    in
    let infeasible obj1 =
      (* Farkas multipliers from the phase-1 reduced costs: the
         multiplier of original row i sits on its initial basis
         column, adjusted for the row's sign flip. *)
      let farkas =
        Array.init m (fun i ->
            if negated.(i) then R.add R.one obj1.(art_index.(i))
            else R.neg obj1.(n + i))
      in
      Infeasible { farkas }
    in
    let phase1_verdict =
      if nart = 0 then `Feasible
      else begin
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
          tab;
        match run obj1 ~max_col:ncols with
        | `Unbounded -> assert false (* phase-1 objective is <= 0 *)
        | `Optimal ->
          if R.sign obj1.(ncols) > 0 then `Infeasible (infeasible obj1)
          else begin
            (* drive leftover zero-level artificials out of the basis;
               an all-zero row (over real columns) is redundant *)
            for i = 0 to m - 1 do
              if live.(i) && basis.(i) >= n + m then begin
                let j = ref (-1) in
                (try
                   for c = 0 to n + m - 1 do
                     if R.sign tab.(i).(c) <> 0 then begin
                       j := c;
                       raise Exit
                     end
                   done
                 with Exit -> ());
                if !j >= 0 then pivot obj1 ~pr:i ~pc:!j
                else live.(i) <- false
              end
            done;
            `Feasible
          end
      end
    in
    match phase1_verdict with
    | `Infeasible r -> r
    | `Feasible -> (
      let obj2 = Array.make (ncols + 1) R.zero in
      for j = 0 to n - 1 do
        obj2.(j) <- objective.(j)
      done;
      Array.iteri
        (fun i row ->
          if live.(i) && basis.(i) < n then begin
            let cb = objective.(basis.(i)) in
            if R.sign cb <> 0 then
              for j = 0 to ncols do
                obj2.(j) <- R.sub obj2.(j) (R.mul cb row.(j))
              done
          end)
        tab;
      match run obj2 ~max_col:(n + m) with
      | `Unbounded -> Unbounded
      | `Optimal ->
        let primal = Array.make n R.zero in
        Array.iteri
          (fun i b -> if live.(i) && b < n then primal.(b) <- tab.(i).(ncols))
          basis;
        let dual =
          Array.init m (fun i ->
              if negated.(i) then obj2.(art_index.(i))
              else R.neg obj2.(n + i))
        in
        Optimal { objective = R.neg obj2.(ncols); primal; dual })

  (* Specialized solver for programs with every right-hand side
     non-negative (the interval LP): the slack basis is feasible, so
     there is never a phase 1. Cold solves replicate [maximize]'s
     phase-2 rules exactly (same Bland entering column, same ratio
     test with basis-index ties), so a cold [Lp.resolve] keeps producing
     bit-identical tables through this path.

     A warm solve crash-loads a suggested basis (the previous optimum
     of a nearby program, columns translated by the caller), then
     repairs it: if the crash landed primal-feasible, plain primal
     simplex finishes; if it landed dual-feasible (the typical case
     after a capacity change — the old optimum's reduced costs still
     price out, only some right-hand sides went negative), dual simplex
     pivots the violated rows out. Both use Bland-style smallest-index
     ties, so termination is unconditional. Anything else — crash
     produced a basis that is neither — abandons the hint and re-solves
     cold; correctness never depends on the hint. *)
  let solve_nonneg ?hint ~objective ~rows () =
    let n = Array.length objective in
    let m = Array.length rows in
    let ncols = n + m in
    Array.iter
      (fun ((a : R.t array), b) ->
        if Array.length a <> n then
          invalid_arg "Lp.Simplex.solve_nonneg: coefficient row length";
        if R.sign b < 0 then
          invalid_arg "Lp.Simplex.solve_nonneg: negative right-hand side")
      rows;
    let pivots = ref 0 in
    let build () =
      let tab =
        Array.init m (fun i ->
            let a, b = rows.(i) in
            let row = Array.make (ncols + 1) R.zero in
            for j = 0 to n - 1 do
              row.(j) <- a.(j)
            done;
            row.(n + i) <- R.one;
            row.(ncols) <- b;
            row)
      in
      let basis = Array.init m (fun i -> n + i) in
      let obj = Array.make (ncols + 1) R.zero in
      for j = 0 to n - 1 do
        obj.(j) <- objective.(j)
      done;
      (tab, basis, obj)
    in
    let pivot tab basis obj ~pr ~pc =
      incr pivots;
      let prow = tab.(pr) in
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
      Array.iteri (fun i row -> if i <> pr then elim row) tab;
      elim obj;
      basis.(pr) <- pc
    in
    let primal tab basis obj =
      let rec loop () =
        let pc = ref (-1) in
        (try
           for j = 0 to ncols - 1 do
             if R.sign obj.(j) > 0 then begin
               pc := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !pc < 0 then `Optimal
        else begin
          let pc = !pc in
          let pr = ref (-1) in
          for i = 0 to m - 1 do
            if R.sign tab.(i).(pc) > 0 then
              if !pr < 0 then pr := i
              else begin
                let cur = R.div tab.(!pr).(ncols) tab.(!pr).(pc) in
                let cand = R.div tab.(i).(ncols) tab.(i).(pc) in
                let c = R.compare cand cur in
                if c < 0 || (c = 0 && basis.(i) < basis.(!pr)) then pr := i
              end
          done;
          if !pr < 0 then `Unbounded
          else begin
            pivot tab basis obj ~pr:!pr ~pc;
            loop ()
          end
        end
      in
      loop ()
    in
    let dual tab basis obj =
      (* Bland for the dual: leave the negative-rhs row whose basic
         variable has the smallest index; enter the column minimizing
         obj_j / a_rj over a_rj < 0 (both non-positive, so the ratio
         is >= 0), ties to the smallest column. *)
      let rec loop () =
        let pr = ref (-1) in
        for i = 0 to m - 1 do
          if R.sign tab.(i).(ncols) < 0 then
            if !pr < 0 || basis.(i) < basis.(!pr) then pr := i
        done;
        if !pr < 0 then `Feasible
        else begin
          let pr = !pr in
          let pc = ref (-1) and best = ref R.zero in
          for j = 0 to ncols - 1 do
            if R.sign tab.(pr).(j) < 0 then begin
              let ratio = R.div obj.(j) tab.(pr).(j) in
              if !pc < 0 || R.compare ratio !best < 0 then begin
                pc := j;
                best := ratio
              end
            end
          done;
          if !pc < 0 then `Stuck
          else begin
            pivot tab basis obj ~pr ~pc:!pc;
            loop ()
          end
        end
      in
      loop ()
    in
    let finish tab basis obj =
      match primal tab basis obj with
      | `Unbounded -> None
      | `Optimal ->
        let sol = Array.make n R.zero in
        Array.iteri
          (fun i b -> if b < n then sol.(b) <- tab.(i).(ncols))
          basis;
        Some (sol, Array.copy basis)
    in
    let attempt_warm hint =
      if Array.length hint <> m then None
      else begin
        let tab, basis, obj = build () in
        Array.iteri
          (fun i c ->
            if c >= 0 && c < ncols && basis.(i) <> c then begin
              let taken = Array.exists (fun b -> b = c) basis in
              if (not taken) && R.sign tab.(i).(c) <> 0 then
                pivot tab basis obj ~pr:i ~pc:c
            end)
          hint;
        let primal_feasible =
          Array.for_all (fun row -> R.sign row.(ncols) >= 0) tab
        in
        let dual_feasible =
          let ok = ref true in
          for j = 0 to ncols - 1 do
            if R.sign obj.(j) > 0 then ok := false
          done;
          !ok
        in
        if primal_feasible then finish tab basis obj
        else if dual_feasible then
          match dual tab basis obj with
          | `Stuck -> None
          | `Feasible -> finish tab basis obj
        else None
      end
    in
    (* the pivot count is cumulative across a failed warm attempt and
       the cold re-solve it falls back to: wasted work is still work *)
    match Option.bind hint attempt_warm with
    | Some (sol, basis) -> Some (sol, basis, !pivots, true)
    | None -> (
      let tab, basis, obj = build () in
      match finish tab basis obj with
      | Some (sol, basis) -> Some (sol, basis, !pivots, false)
      | None -> None)
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
let translate_basis ~emap ~nmap (oc : comp_state) c =
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
      Option.bind (emap oc.sedges.(r)) (Hashtbl.find_opt xcol)
    else if r < me_o + nb_o then
      Option.bind (nmap oc.sbranches.(r - me_o)) (Hashtbl.find_opt branchrow)
    else Some (nrows_n - 1)
  in
  let new_col col =
    if col < me_o then
      Option.bind (emap oc.sedges.(col)) (Hashtbl.find_opt xcol)
    else if col < nvars_o then
      Option.bind
        (nmap oc.snodes.(col - me_o))
        (fun v ->
          Option.map (fun slot -> me_n + slot) (Hashtbl.find_opt c.node_slot v))
    else
      Option.map (fun r' -> nvars_n + r') (new_row (col - nvars_o))
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

let resolve ?warm ?edge_map ?node_map ?dirty g =
  require_dag "Lp.resolve" g;
  let ivals = Array.make (Graph.num_edges g) Interval.inf in
  let comps = cycle_components g in
  let emap o =
    match edge_map with
    | None -> Some o
    | Some m -> if o >= 0 && o < Array.length m then m.(o) else None
  in
  let nmap v =
    match node_map with
    | None -> Some v
    | Some m -> if v >= 0 && v < Array.length m then m.(v) else None
  in
  let is_dirty ne = match dirty with None -> false | Some d -> d.(ne) in
  (* base edge id for each current edge, from the forward map *)
  let origin =
    match edge_map with
    | None -> Hashtbl.find_opt (Hashtbl.create 0) (* identity below *)
    | Some m ->
      let rev = Hashtbl.create 64 in
      Array.iteri
        (fun o n -> match n with Some n -> Hashtbl.add rev n o | None -> ())
        m;
      Hashtbl.find_opt rev
  in
  let origin ne = match edge_map with None -> Some ne | Some _ -> origin ne in
  let old_comps = Array.of_list (match warm with None -> [] | Some s -> s) in
  let old_comp_of_edge = Hashtbl.create 64 in
  Array.iteri
    (fun ci (oc : comp_state) ->
      Array.iter (fun oe -> Hashtbl.replace old_comp_of_edge oe ci) oc.sedges)
    old_comps;
  let stats =
    ref
      {
        rcomponents = List.length comps;
        rrows = 0;
        rspliced = 0;
        rwarm = 0;
        rcold = 0;
        rpivots = 0;
      }
  in
  let rev_state = ref [] in
  List.iter
    (fun c ->
      let nrows = Array.length c.cedges + List.length c.branches + 1 in
      stats := { !stats with rrows = !stats.rrows + nrows };
      (* the old component this one descends from, by origin majority *)
      let votes = Hashtbl.create 4 in
      let clean = ref true in
      Array.iter
        (fun (e : Graph.edge) ->
          if is_dirty e.id then clean := false;
          match origin e.id with
          | None -> clean := false
          | Some o -> (
            match Hashtbl.find_opt old_comp_of_edge o with
            | None -> clean := false
            | Some ci ->
              Hashtbl.replace votes ci
                (1 + Option.value ~default:0 (Hashtbl.find_opt votes ci))))
        c.cedges;
      let ancestor =
        Hashtbl.fold
          (fun ci n best ->
            match best with
            | Some (_, bn) when bn >= n -> best
            | _ -> Some (ci, n))
          votes None
        |> Option.map (fun (ci, _) -> old_comps.(ci))
      in
      let exact_match =
        !clean
        && match ancestor with
           | None -> false
           | Some oc ->
             Array.length oc.sedges = Array.length c.cedges
             && begin
                  let olds =
                    Array.to_list (Array.map (fun (e : Graph.edge) ->
                        Option.get (origin e.id)) c.cedges)
                    |> List.sort Stdlib.compare
                  in
                  List.sort Stdlib.compare (Array.to_list oc.sedges) = olds
                end
      in
      match (exact_match, ancestor) with
      | true, Some oc ->
        (* clean component: splice the previous optimum, zero pivots *)
        let pos = Hashtbl.create 16 in
        Array.iteri (fun k oe -> Hashtbl.add pos oe k) oc.sedges;
        let svals =
          Array.map
            (fun (e : Graph.edge) ->
              let v = oc.svals.(Hashtbl.find pos (Option.get (origin e.id))) in
              ivals.(e.id) <- v;
              v)
            c.cedges
        in
        let sbasis = translate_basis ~emap ~nmap oc c in
        stats := { !stats with rspliced = !stats.rspliced + 1 };
        rev_state :=
          {
            sedges = Array.map (fun (e : Graph.edge) -> e.id) c.cedges;
            snodes = Array.copy c.cnodes;
            sbranches = Array.of_list (List.map fst c.branches);
            svals;
            sbasis;
          }
          :: !rev_state
      | _ -> (
        let rows, objective = interval_rows c in
        let hint = Option.map (fun oc -> translate_basis ~emap ~nmap oc c) ancestor in
        match Simplex.solve_nonneg ?hint ~objective ~rows () with
        | None -> assert false (* the box row bounds sum x *)
        | Some (primal, sbasis, pivots, warmed) ->
          let svals =
            Array.mapi
              (fun k (e : Graph.edge) ->
                let v = interval_of_primal primal.(k) in
                ivals.(e.id) <- v;
                v)
              c.cedges
          in
          stats :=
            {
              !stats with
              rpivots = !stats.rpivots + pivots;
              rwarm = (!stats.rwarm + if warmed then 1 else 0);
              rcold = (!stats.rcold + if warmed then 0 else 1);
            };
          rev_state :=
            {
              sedges = Array.map (fun (e : Graph.edge) -> e.id) c.cedges;
              snodes = Array.copy c.cnodes;
              sbranches = Array.of_list (List.map fst c.branches);
              svals;
              sbasis;
            }
            :: !rev_state))
    comps;
  (ivals, !stats, List.rev !rev_state)

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
      match Simplex.maximize ~objective ~rows with
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
      match Simplex.maximize ~objective ~rows with
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
