(* The LP backend's programs as dense rational linear programs, solved
   by {!Simplex} per cyclic biconnected component: the reference
   [Fstream_core.Lp] is checked against. Columns: [edge_cols] (none or
   one per component edge), then D per graph node. *)

open Fstream_graph
module R = Rational

let cap (e : Graph.edge) = e.cap

let components g =
  Articulation.biconnected_components g
  |> List.filter (function [] | [ _ ] -> false | _ -> true)
  |> List.map Array.of_list

(* (node, smallest outgoing capacity) of every node with two or more
   outgoing component edges *)
let branches cedges =
  let edges = Array.to_list cedges in
  List.sort_uniq compare (List.map (fun (e : Graph.edge) -> e.src) edges)
  |> List.filter_map (fun v ->
         match List.filter (fun (e : Graph.edge) -> e.src = v) edges with
         | _ :: _ :: _ as out ->
           Some (v, List.fold_left min max_int (List.map cap out))
         | _ -> None)

let solve g ~edge_cols ~objective rows =
  let ncols = edge_cols + Graph.num_nodes g in
  let row (coeffs, b) =
    let a = Array.make ncols R.zero in
    List.iter (fun (j, x) -> a.(j) <- R.add a.(j) (R.of_int x)) coeffs;
    (a, R.of_int b)
  in
  Simplex.maximize
    ~objective:
      (Array.init ncols (fun j -> if j < edge_cols then objective else R.zero))
    ~rows:(Array.of_list (List.map row (rows (fun v -> edge_cols + v))))
    ()

(* D_s <= min_cap_out(s) - 1 *)
let branch_rows cedges d =
  List.map (fun (s, cap) -> ([ (d s, 1) ], cap - 1)) (branches cedges)

(* D_dst - D_src <= 1 - t on every finite-threshold edge *)
let demand_rows cedges thresholds d =
  List.filter_map
    (fun (e : Graph.edge) ->
      Option.map
        (fun t -> ([ (d e.dst, 1); (d e.src, -1) ], 1 - t))
        thresholds.(e.id))
    (Array.to_list cedges)

(* Per cyclic component, its edge ids and the optimum of max sum x_e
   subject to x_e + D_dst - D_src <= 0, the branch rows
   D_s <= min_cap_out(s) - 1 and the box row sum x_e <= sum cap_e. *)
let interval_objectives g =
  List.map
    (fun cedges ->
      let me = Array.length cedges in
      let edges = Array.to_list cedges in
      let chains d =
        List.mapi
          (fun k (e : Graph.edge) ->
            ([ (k, 1); (d e.dst, 1); (d e.src, -1) ], 0))
          edges
      in
      let total = List.fold_left ( + ) 0 (List.map cap edges) in
      let box = (List.init me (fun k -> (k, 1)), total) in
      match
        solve g ~edge_cols:me ~objective:R.one (fun d ->
            (box :: chains d) @ branch_rows cedges d)
      with
      | Simplex.Optimal { objective; _ } ->
        (List.map (fun (e : Graph.edge) -> e.id) edges, objective)
      | _ -> assert false (* the origin is feasible, the box row bounds it *))
    (components g)

(* Whether every component's audit program (the demand rows, the branch
   rows, D >= 0) is feasible. *)
let audit_feasible g ~thresholds =
  List.for_all
    (fun cedges ->
      match
        solve g ~edge_cols:0 ~objective:R.zero (fun d ->
            demand_rows cedges thresholds d @ branch_rows cedges d)
      with
      | Simplex.Optimal _ -> true
      | Simplex.Infeasible _ -> false
      | Simplex.Unbounded -> assert false (* zero objective *))
    (components g)

(* The sizing program's capacities: minimize sum y_e subject to the
   demand rows and y_e >= D_src on branch out-edges; a component edge
   gets 1 + ceil y_e, every other edge 1. *)
let min_buffers g ~thresholds =
  let caps = Array.make (Graph.num_edges g) 1 in
  List.iter
    (fun cedges ->
      let branch = List.map fst (branches cedges) in
      let covers d =
        List.concat
          (List.mapi
             (fun k (e : Graph.edge) ->
               if List.mem e.src branch then [ ([ (d e.src, 1); (k, -1) ], 0) ]
               else [])
             (Array.to_list cedges))
      in
      match
        solve g ~edge_cols:(Array.length cedges) ~objective:R.minus_one
          (fun d -> demand_rows cedges thresholds d @ covers d)
      with
      | Simplex.Optimal { primal; _ } ->
        Array.iteri
          (fun k (e : Graph.edge) -> caps.(e.id) <- 1 + R.ceil primal.(k))
          cedges
      | _ -> assert false (* y large enough always fits; sum y >= 0 *))
    (components g);
  caps
