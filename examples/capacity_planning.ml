(* Capacity planning: trading buffer memory for dummy bandwidth.

     dune exec examples/capacity_planning.exe

   Dummy intervals scale linearly with buffer capacities (the interval
   formulas are sums and ratios of them), so "how big must my buffers
   be to keep dummy traffic below a target rate?" has a closed-form
   answer. This example takes the Fig. 5 ladder with unit buffers —
   where some channel needs a dummy every sequence number — asks
   [Sizing] for the smallest uniform scaling that guarantees intervals
   of at least 8, and measures the dummy overhead before and after. *)

open Fstream_graph
open Fstream_core
open Fstream_runtime
open Fstream_workloads

let overhead g =
  match Compiler.compile Compiler.Non_propagation g with
  | Error e -> failwith (Compiler.error_to_string e)
  | Ok plan ->
    let rng = Random.State.make [| 11 |] in
    let kernels =
      Filters.for_graph g (fun v outs ->
          if Graph.in_degree g v = 0 || Graph.out_degree g v = 1 then
            Filters.bernoulli rng ~keep:0.7 outs
          else Filters.passthrough outs)
    in
    let s =
      Engine.run ~graph:g ~kernels ~inputs:5000
        ~avoidance:(Engine.Non_propagation (Compiler.send_thresholds g plan.intervals))
        ()
    in
    let tightest = Array.fold_left Interval.min Interval.inf plan.intervals in
    (tightest, s)

let report label g =
  let tightest, s = overhead g in
  let mem =
    List.fold_left (fun acc (e : Graph.edge) -> acc + e.cap) 0 (Graph.edges g)
  in
  Format.printf
    "  %-14s buffers total %4d slots, tightest interval %-5s  %s, dummy overhead %5.1f%%@."
    label mem
    (Format.asprintf "%a" Interval.pp tightest)
    (match s.Report.outcome with
    | Report.Completed -> "completed"
    | _ -> "FAILED")
    (100. *. float s.dummy_messages /. float (max 1 s.data_messages))

let () =
  let g = Topo_gen.fig5_ladder ~cap:1 in
  Format.printf "Fig. 5 ladder, 5000 inputs, filtering at source and relays@.";
  report "unit buffers" g;
  let target = 8 in
  match Sizing.min_uniform_scale g Compiler.Non_propagation ~target with
  | Error e -> failwith e
  | Ok c ->
    Format.printf "  -> smallest scaling for intervals >= %d: x%d@." target c;
    report (Printf.sprintf "scaled x%d" c) (Result.get_ok (Sizing.scale_caps g c))
