open Fstream_graph

let scale_caps g c =
  if c < 1 then invalid_arg "Sizing.scale_caps: factor < 1";
  let total = Graph.fold_edges g ~init:0 ~f:(fun k e -> k + e.cap) in
  (* [total <= max_total_cap], so neither product below can wrap *)
  if total > 0 && c > Graph.max_total_cap / total then
    Error
      (Printf.sprintf
         "scaling capacities x%d would sum them past %d (they sum to %d)" c
         Graph.max_total_cap total)
  else Ok (Graph.map_caps g (fun e -> e.cap * c))

let scale_of_intervals intervals ~target =
  if target < 1 then Error "target interval must be positive"
  else if target > Graph.max_total_cap then
    (* no interval exceeds the capacity total, and below this bound
       [target * den] cannot wrap *)
    Error
      (Printf.sprintf "target interval %d is above the capacity bound %d"
         target Graph.max_total_cap)
  else
    match Array.fold_left Interval.min Interval.inf intervals with
    | Interval.Inf -> Ok 1
    | Interval.Fin { num; den } ->
      (* least c with c * num/den >= target *)
      Ok (max 1 (((target * den) + num - 1) / num))

let min_uniform_scale g algorithm ~target =
  if target < 1 then Error "target interval must be positive"
  else
    match Compiler.compile ~options:{ Compiler.Options.default with allow_general = false } algorithm g with
    | Error e -> Error (Compiler.error_to_string e)
    | Ok plan -> scale_of_intervals plan.intervals ~target
