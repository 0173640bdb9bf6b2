open Fstream_core
open Fstream_workloads

let scaled_interval c = function
  | Interval.Inf -> Interval.inf
  | Interval.Fin { num; den } -> Interval.ratio (num * c) den

let prop_homogeneity =
  (* the structural property behind Sizing: interval tables are
     homogeneous of degree 1 in the capacities, for every algorithm *)
  Tutil.qtest ~count:150 "intervals scale linearly with capacities"
    QCheck.(pair Tutil.seed_gen (int_range 2 5))
    (fun (seed, c) ->
      let g = Tutil.random_cs4_of_seed seed in
      let g' = Result.get_ok (Sizing.scale_caps g c) in
      List.for_all
        (fun algo ->
          match
            ( Compiler.compile ~options:{ Compiler.Options.default with allow_general = false } algo g,
              Compiler.compile ~options:{ Compiler.Options.default with allow_general = false } algo g' )
          with
          | Ok p, Ok p' ->
            Array.for_all Fun.id
              (Array.mapi
                 (fun i v ->
                   Interval.equal p'.intervals.(i) (scaled_interval c v))
                 p.intervals)
          | _ -> false)
        [ Compiler.Propagation; Compiler.Non_propagation; Compiler.Relay_propagation ])

let test_fig2_sizing () =
  (* fig2 with caps 2 has tightest non-prop interval 1 (= 2/2); to
     guarantee intervals >= 5 everywhere, buffers must scale by 5 *)
  let g = Topo_gen.fig2_triangle ~cap:2 in
  (match Sizing.min_uniform_scale g Compiler.Non_propagation ~target:5 with
  | Ok c -> Alcotest.(check int) "scale factor" 5 c
  | Error e -> Alcotest.fail e);
  match Sizing.min_uniform_scale g Compiler.Propagation ~target:5 with
  | Ok c ->
    (* tightest propagation interval is 2 (A->B): ceil(5/2) = 3 *)
    Alcotest.(check int) "propagation scale factor" 3 c
  | Error e -> Alcotest.fail e

(* A target above the capacity bound is an error, not a product that
   wraps into a wrong factor (fig5's tightest interval has
   denominator 3, so [target * 3] would wrap). *)
let test_target_past_bound () =
  let g = Topo_gen.fig5_ladder ~cap:2 in
  match
    Sizing.min_uniform_scale g Compiler.Non_propagation
      ~target:(max_int / 3 * 2)
  with
  | Error _ -> ()
  | Ok c -> Alcotest.failf "a target past the bound sized to x%d" c

let test_acyclic_needs_nothing () =
  let g = Topo_gen.pipeline ~stages:4 ~cap:1 in
  match Sizing.min_uniform_scale g Compiler.Non_propagation ~target:100 with
  | Ok 1 -> ()
  | Ok c -> Alcotest.failf "expected 1, got %d" c
  | Error e -> Alcotest.fail e

let prop_sizing_achieves_target =
  Tutil.qtest ~count:100 "scaled graphs meet the target interval"
    QCheck.(pair Tutil.seed_gen (int_range 2 9))
    (fun (seed, target) ->
      let g = Tutil.random_cs4_of_seed seed in
      match Sizing.min_uniform_scale g Compiler.Non_propagation ~target with
      | Error _ -> false
      | Ok c -> (
        let g' = Result.get_ok (Sizing.scale_caps g c) in
        match Compiler.compile ~options:{ Compiler.Options.default with allow_general = false } Compiler.Non_propagation g' with
        | Error _ -> false
        | Ok p ->
          Array.for_all
            (fun v ->
              (not (Interval.is_finite v))
              || Interval.compare v (Interval.of_int target) >= 0)
            p.intervals))

let prop_sizing_minimal =
  Tutil.qtest ~count:100 "one step smaller misses the target"
    QCheck.(pair Tutil.seed_gen (int_range 2 9))
    (fun (seed, target) ->
      let g = Tutil.random_cs4_of_seed seed in
      match Sizing.min_uniform_scale g Compiler.Non_propagation ~target with
      | Error _ -> false
      | Ok 1 -> true
      | Ok c -> (
        let g' = Result.get_ok (Sizing.scale_caps g (c - 1)) in
        match Compiler.compile ~options:{ Compiler.Options.default with allow_general = false } Compiler.Non_propagation g' with
        | Error _ -> false
        | Ok p ->
          Array.exists
            (fun v ->
              Interval.is_finite v
              && Interval.compare v (Interval.of_int target) < 0)
            p.intervals))

(* Lint sizes FS301's fixit from the plan it audits when that plan took
   the CS4 route: the plan's table must size exactly as the cold compile
   [min_uniform_scale] runs (Exact, no general fallback). *)
let prop_cs4_plan_sizes_like_cold_compile =
  Tutil.qtest ~count:100 "a CS4-route table sizes like the cold compile"
    QCheck.(pair Tutil.seed_gen (int_range 1 9))
    (fun (seed, target) ->
      let families =
        [ Tutil.random_cs4_of_seed ?max_blocks:None;
          Tutil.random_sp_of_seed ?max_edges:None;
          Tutil.random_ladder_of_seed ?max_rungs:None ]
      in
      List.for_all
        (fun family ->
          let g = family seed in
          List.for_all
            (fun algo ->
              match Compiler.compile algo g with
              | Ok ({ route = Compiler.Cs4_route _; _ } as p) ->
                Sizing.scale_of_intervals p.intervals ~target
                = Sizing.min_uniform_scale g algo ~target
              | _ -> true)
            [ Compiler.Propagation; Compiler.Non_propagation;
              Compiler.Relay_propagation ])
        families)

let suite =
  [
    Alcotest.test_case "fig2 sizing" `Quick test_fig2_sizing;
    Alcotest.test_case "a target past the capacity bound is an error" `Quick
      test_target_past_bound;
    Alcotest.test_case "acyclic graphs need nothing" `Quick
      test_acyclic_needs_nothing;
    prop_homogeneity;
    prop_sizing_achieves_target;
    prop_sizing_minimal;
    prop_cs4_plan_sizes_like_cold_compile;
  ]
