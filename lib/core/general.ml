open Fstream_graph

let fold_runs cycle f =
  let runs = Cycles.runs cycle in
  let opposite = Cycles.opposite_run cycle in
  Array.iteri (fun t run -> f run runs.(opposite.(t))) runs

let update_propagation ivals cycle =
  fold_runs cycle (fun run opp ->
      match run.Cycles.run_edges with
      | [] -> assert false
      | first :: _ ->
        let v = Interval.of_int (Cycles.run_caps opp) in
        ivals.(first.id) <- Interval.min ivals.(first.id) v)

let update_all_run_edges ~ratio ivals cycle =
  fold_runs cycle (fun run opp ->
      let v = ratio (Cycles.run_caps opp) (Cycles.run_hops run) in
      List.iter
        (fun (e : Graph.edge) -> ivals.(e.id) <- Interval.min ivals.(e.id) v)
        run.Cycles.run_edges)

let update_non_propagation ivals cycle =
  update_all_run_edges ~ratio:Interval.ratio ivals cycle

let update_relay_propagation ivals cycle =
  update_all_run_edges ~ratio:(fun l _ -> Interval.of_int l) ivals cycle

let compute update ?max_cycles g =
  let ivals = Array.make (Graph.num_edges g) Interval.inf in
  Cycles.fold ?max_cycles g ~init:ivals ~f:(fun ivals c ->
      update ivals c;
      ivals)

let propagation ?max_cycles g = compute update_propagation ?max_cycles g
let non_propagation ?max_cycles g = compute update_non_propagation ?max_cycles g

let relay_propagation ?max_cycles g =
  compute update_relay_propagation ?max_cycles g
