(* The LP backend: simplex fixtures, encoding safety (every produced
   table model-checked wedge-free), tightness against the exact
   backend, dimensioning, and the audit/witness direction. *)

open Fstream_graph
open Fstream_core
module R = Rational
module Verify = Fstream_verify.Verify
module Engine = Fstream_runtime.Engine
module Topo_gen = Fstream_workloads.Topo_gen

let r = R.of_int
let rq num den = R.make num den

let rational_t : R.t Alcotest.testable = Alcotest.testable R.pp R.equal

(* ---------------- Rational arithmetic ----------------------------- *)

let test_rational_basics () =
  Alcotest.check rational_t "normalization" (rq 3 2) (rq 6 4);
  Alcotest.check rational_t "negative den" (rq (-3) 2) (rq 3 (-2));
  Alcotest.check rational_t "add" (rq 5 6) (R.add (rq 1 2) (rq 1 3));
  Alcotest.check rational_t "sub to zero" R.zero (R.sub (rq 7 3) (rq 7 3));
  Alcotest.check rational_t "mul" (rq 1 3) (R.mul (rq 2 3) (rq 1 2));
  Alcotest.check rational_t "div" (rq 4 3) (R.div (rq 2 3) (rq 1 2));
  Alcotest.(check int) "floor pos" 2 (R.floor (rq 7 3));
  Alcotest.(check int) "floor neg" (-3) (R.floor (rq (-7) 3));
  Alcotest.(check int) "ceil pos" 3 (R.ceil (rq 7 3));
  Alcotest.(check int) "ceil neg" (-2) (R.ceil (rq (-7) 3));
  Alcotest.(check int) "sign" (-1) (R.sign (rq (-1) 5));
  Alcotest.(check (option (pair int int)))
    "to_int_pair" (Some (-3, 2))
    (R.to_int_pair (rq 3 (-2)));
  Alcotest.(check string) "to_string" "-3/2" (R.to_string (rq (-3) 2))

(* exercise the multi-limb path: values far past 63 bits must still
   cancel exactly *)
let test_rational_bignum () =
  let big = r 123456789123456789 in
  let pow b n =
    let rec go acc n = if n = 0 then acc else go (R.mul acc b) (n - 1) in
    go R.one n
  in
  let p5 = pow big 5 in
  Alcotest.(check (option (pair int int)))
    "5th power exceeds int range" None (R.to_int_pair p5);
  Alcotest.check rational_t "x^5 / x^5 = 1" R.one (R.div p5 p5);
  Alcotest.check rational_t "x^5 * x^-5 = 1" R.one
    (R.mul p5 (R.div R.one p5));
  Alcotest.check rational_t "(x^5 - 1) + 1 = x^5" p5
    (R.add (R.sub p5 R.one) R.one);
  Alcotest.(check string)
    "decimal printing round-trips through a known square"
    "15241578780673678515622620750190521"
    (R.to_string (R.mul big big));
  Alcotest.(check int) "compare" 1 (R.compare p5 big)

let rational_qcheck =
  let gen =
    QCheck.make
      ~print:(fun (a, b, c, d) -> Printf.sprintf "%d/%d, %d/%d" a b c d)
      QCheck.Gen.(
        quad (int_range (-1000) 1000) (int_range 1 1000)
          (int_range (-1000) 1000) (int_range 1 1000))
  in
  Tutil.qtest ~count:500 "field laws on random rationals" gen
    (fun (a, b, c, d) ->
      let x = rq a b and y = rq c d in
      R.equal (R.add x y) (R.add y x)
      && R.equal (R.mul x y) (R.mul y x)
      && R.equal (R.sub (R.add x y) y) x
      && (R.is_zero y || R.equal (R.mul (R.div x y) y) x)
      && R.equal (R.mul (R.add x y) (r 2)) (R.add (R.mul x (r 2)) (R.mul y (r 2))))

(* ---------------- Simplex fixtures -------------------------------- *)

let test_simplex_optimal () =
  (* max x + y  s.t.  x + 2y <= 4, 3x + y <= 6: optimum (8/5, 6/5) *)
  match
    (Lp.Simplex.maximize
       ~objective:[| R.one; R.one |]
       ~rows:[| ([| r 1; r 2 |], r 4); ([| r 3; r 1 |], r 6) |]
       ())
      .outcome
  with
  | Lp.Simplex.Optimal { objective; primal; dual } ->
    Alcotest.check rational_t "objective" (rq 14 5) objective;
    Alcotest.check rational_t "x" (rq 8 5) primal.(0);
    Alcotest.check rational_t "y" (rq 6 5) primal.(1);
    (* both rows bind; complementary slackness gives positive prices *)
    Alcotest.(check bool) "dual >= 0" true
      (Array.for_all (fun y -> R.sign y >= 0) dual)
  | _ -> Alcotest.fail "expected Optimal"

let test_simplex_degenerate () =
  (* redundant constraints meeting at one vertex must still terminate
     (Bland) and find the optimum *)
  match
    (Lp.Simplex.maximize
       ~objective:[| R.one; R.one |]
       ~rows:
         [|
           ([| r 1; r 0 |], r 1);
           ([| r 0; r 1 |], r 1);
           ([| r 1; r 1 |], r 2);
           ([| r 2; r 2 |], r 4);
         |]
       ())
      .outcome
  with
  | Lp.Simplex.Optimal { objective; _ } ->
    Alcotest.check rational_t "objective" (r 2) objective
  | _ -> Alcotest.fail "expected Optimal"

let test_simplex_unbounded () =
  match
    (Lp.Simplex.maximize ~objective:[| R.one; R.zero |]
       ~rows:[| ([| r 0; r 1 |], r 1) |] ())
      .outcome
  with
  | Lp.Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected Unbounded"

let test_simplex_phase1 () =
  (* a negative RHS forces phase 1: min x at x >= 1 *)
  match
    (Lp.Simplex.maximize ~objective:[| R.minus_one |]
       ~rows:[| ([| r (-1) |], r (-1)); ([| r 1 |], r 3) |] ())
      .outcome
  with
  | Lp.Simplex.Optimal { objective; primal; _ } ->
    Alcotest.check rational_t "objective" (r (-1)) objective;
    Alcotest.check rational_t "x" (r 1) primal.(0)
  | _ -> Alcotest.fail "expected Optimal"

let test_simplex_infeasible () =
  (* x <= 2 and x >= 3 *)
  let rows = [| ([| r 1 |], r 2); ([| r (-1) |], r (-3)) |] in
  match (Lp.Simplex.maximize ~objective:[| R.one |] ~rows ()).outcome with
  | Lp.Simplex.Infeasible { farkas } ->
    (* the certificate really certifies: y >= 0, y^T A >= 0, y^T b < 0 *)
    Alcotest.(check bool) "y >= 0" true
      (Array.for_all (fun y -> R.sign y >= 0) farkas);
    let combo f =
      Array.to_list rows
      |> List.mapi (fun i row -> R.mul farkas.(i) (f row))
      |> List.fold_left R.add R.zero
    in
    Alcotest.(check bool) "y^T A >= 0" true
      (R.sign (combo (fun (a, _) -> a.(0))) >= 0);
    Alcotest.(check bool) "y^T b < 0" true (R.sign (combo snd) < 0)
  | _ -> Alcotest.fail "expected Infeasible"

(* ---------------- Simplex warm start -------------------------------- *)

(* A random program over 1-4 variables: 1-5 rows with coefficients in
   [-3, 3] and right-hand sides drawn by [rhs], plus an all-ones box row
   with a positive bound, so every feasible program is bounded. *)
let random_program rng ~rhs =
  let n = 1 + Random.State.int rng 4 in
  let coeffs () = Array.init n (fun _ -> r (Random.State.int rng 7 - 3)) in
  let rows =
    Array.init (1 + Random.State.int rng 5) (fun _ -> (coeffs (), r (rhs ())))
  in
  let box = (Array.make n R.one, r (1 + Random.State.int rng 9)) in
  (coeffs (), Array.append rows [| box |])

let objective_of (s : Lp.Simplex.solution) =
  match s.outcome with
  | Lp.Simplex.Optimal { objective; _ } -> objective
  | _ -> Alcotest.fail "expected Optimal"

(* With every right-hand side non-negative the slack basis is feasible,
   so a hint is always tried: its own optimal basis, the optimal basis
   of the program with perturbed right-hand sides (the crash may land
   primal-infeasible, where the dual loop repairs it) and a random basis
   (which may be abandoned for a cold solve) must all reach the cold
   optimum. A hint that keeps every slack crashes nothing and replays
   the cold solve pivot for pivot. *)
let simplex_warm_qcheck =
  Tutil.qtest ~count:500 "simplex: every hint reaches the cold optimum"
    Tutil.seed_gen (fun seed ->
      let rng = Tutil.rng_of seed in
      let objective, rows =
        random_program rng ~rhs:(fun () -> Random.State.int rng 7)
      in
      let m = Array.length rows and n = Array.length objective in
      let solve ?hint rows = Lp.Simplex.maximize ?hint ~objective ~rows () in
      let cold = solve rows in
      let z = objective_of cold in
      let reaches name (s : Lp.Simplex.solution) =
        if not (R.equal z (objective_of s)) then
          QCheck.Test.fail_reportf "%s: objective %s, cold %s" name
            (R.to_string (objective_of s)) (R.to_string z)
      in
      let own = solve ~hint:cold.basis rows in
      reaches "own basis" own;
      let nudge b =
        let b = R.add b (r (Random.State.int rng 5 - 2)) in
        if R.sign b < 0 then R.zero else b
      in
      let perturbed = Array.map (fun (a, b) -> (a, nudge b)) rows in
      let zp = objective_of (solve perturbed) in
      let repaired = solve ~hint:cold.basis perturbed in
      if not (R.equal zp (objective_of repaired)) then
        QCheck.Test.fail_reportf "perturbed: objective %s, cold %s"
          (R.to_string (objective_of repaired)) (R.to_string zp);
      let random_hint =
        Array.init m (fun _ -> Random.State.int rng (n + m + 1) - 1)
      in
      reaches "random hint" (solve ~hint:random_hint rows);
      let slack = solve ~hint:(Array.make m (-1)) rows in
      reaches "slack hint" slack;
      slack.warm && slack.pivots = cold.pivots && not cold.warm)

(* A negative right-hand side runs phase 1, which ignores the hint. *)
let simplex_phase1_hint_qcheck =
  Tutil.qtest ~count:500 "simplex: phase 1 ignores the hint" Tutil.seed_gen
    (fun seed ->
      let rng = Tutil.rng_of seed in
      let objective, rows =
        random_program rng ~rhs:(fun () -> Random.State.int rng 9 - 3)
      in
      let m = Array.length rows and n = Array.length objective in
      QCheck.assume (Array.exists (fun (_, b) -> R.sign b < 0) rows);
      let plain = Lp.Simplex.maximize ~objective ~rows () in
      let hinted =
        Lp.Simplex.maximize
          ~hint:(Array.init m (fun _ -> Random.State.int rng (n + m)))
          ~objective ~rows ()
      in
      let same_array a b =
        Array.length a = Array.length b && Array.for_all2 R.equal a b
      in
      (match (plain.outcome, hinted.outcome) with
      | ( Lp.Simplex.Optimal { objective = z; primal = p; dual = d },
          Lp.Simplex.Optimal { objective = z'; primal = p'; dual = d' } ) ->
        R.equal z z' && same_array p p' && same_array d d'
      | ( Lp.Simplex.Infeasible { farkas = f },
          Lp.Simplex.Infeasible { farkas = f' } ) ->
        same_array f f'
      | Lp.Simplex.Unbounded, Lp.Simplex.Unbounded -> true
      | _ -> false)
      && plain.basis = hinted.basis && plain.pivots = hinted.pivots
      && (not plain.warm) && not hinted.warm)

(* ---------------- The interval backend ---------------------------- *)

let lp_options = { Compiler.Options.default with backend = Compiler.Lp }

let lp_plan g =
  match Compiler.compile ~options:lp_options Compiler.Non_propagation g with
  | Ok p -> p
  | Error e -> Alcotest.failf "LP backend rejected: %a" Compiler.pp_error e

let test_lp_route () =
  let g = Topo_gen.fig4_butterfly ~cap:2 in
  let p = lp_plan g in
  (match p.route with
  | Compiler.Lp_route { components; rows } ->
    Alcotest.(check int) "one cyclic component" 1 components;
    Alcotest.(check bool) "rows recorded" true (rows > 0)
  | _ -> Alcotest.fail "expected Lp_route");
  (* the butterfly is one biconnected component: all finite intervals *)
  Alcotest.(check bool) "all finite" true
    (Array.for_all Interval.is_finite p.intervals)

let test_lp_bridges_inf () =
  (* a pipeline has no cycles at all: every edge is a bridge *)
  let g = Topo_gen.pipeline ~stages:6 ~cap:3 in
  let p = lp_plan g in
  Alcotest.(check bool) "all infinite" true
    (Array.for_all (fun iv -> not (Interval.is_finite iv)) p.intervals)

(* every LP table satisfies its own sufficient discipline *)
let lp_self_audit_qcheck name of_seed =
  Tutil.qtest ~count:300 (name ^ ": LP table passes its own audit")
    Tutil.seed_gen (fun seed ->
      let g = of_seed seed in
      let p = lp_plan g in
      let thresholds = Array.map Interval.threshold p.intervals in
      match Lp.audit g ~thresholds with
      | Ok () -> true
      | Error w ->
        QCheck.Test.fail_reportf "audit rejected its own table: %a"
          Lp.pp_witness w)

(* ----- model-checked safety: the headline property.

   Every sampled general DAG, compiled by the LP backend, must be
   wedge-free under exhaustive exploration for each of the three
   avoidance wrappers. [Out_of_budget] counts as inconclusive-pass,
   as in the other verification suites; graphs are kept tiny so the
   checker almost always decides. *)

type mode = Nonprop | Prop | Relay

let mode_name = function
  | Nonprop -> "non-propagation"
  | Prop -> "propagation"
  | Relay -> "relay-propagation"

let avoidance_of mode g (p : Compiler.plan) =
  match mode with
  | Nonprop -> Engine.Non_propagation (Compiler.send_thresholds g p.intervals)
  | Prop -> Engine.Propagation (Compiler.propagation_thresholds g p.intervals)
  | Relay -> Engine.Propagation (Compiler.send_thresholds g p.intervals)

let random_dense_of_seed seed =
  let rng = Tutil.rng_of seed in
  Topo_gen.random_dense rng
    ~layers:(1 + Random.State.int rng 2)
    ~width:2 ~max_cap:2

(* wide single layer: split/join with 2-3 parallel channels of random
   capacities, the smallest multi-run cycle shapes *)
let split_join_of_seed seed =
  let rng = Tutil.rng_of seed in
  Topo_gen.random_dense rng ~layers:1 ~width:(2 + Random.State.int rng 2)
    ~max_cap:3

let lp_safety_qcheck name of_seed mode =
  Tutil.qtest ~count:300
    (Printf.sprintf "%s + %s wrapper: model-checked wedge-free" name
       (mode_name mode))
    Tutil.seed_gen
    (fun seed ->
      let g = of_seed seed in
      let p = lp_plan g in
      let avoidance = avoidance_of mode g p in
      (* small inputs and state budget keep 300 cases x 3 wrappers
         affordable; larger graphs get fewer inputs so the checker
         still decides most cases *)
      let inputs = if Graph.num_edges g > 7 then 2 else 3 in
      match
        Verify.check ~max_states:15_000 ~graph:g ~avoidance ~inputs ()
      with
      | Verify.Safe _ | Verify.Out_of_budget _ -> true
      | Verify.Deadlocks { trace; _ } ->
        QCheck.Test.fail_reportf "LP table deadlocks:@ %s"
          (String.concat " ; " trace))

(* ----- tightness: where the exact backend terminates, compare ----- *)

let test_tightness_small () =
  let instances =
    [
      Topo_gen.fig2_triangle ~cap:3;
      Topo_gen.fig3_hexagon ();
      Topo_gen.fig4_butterfly ~cap:2;
      Topo_gen.diamond_chain ~diamonds:3 ~cap:2 ();
    ]
  in
  List.iter
    (fun g ->
      let exact =
        match Compiler.compile Compiler.Non_propagation g with
        | Ok p -> p.Compiler.intervals
        | Error e -> Alcotest.failf "exact rejected: %a" Compiler.pp_error e
      in
      let lp = (lp_plan g).Compiler.intervals in
      Array.iteri
        (fun i liv ->
          (* conservative means: never a larger threshold than exact
             would allow is not guaranteed edge-wise (the LP spreads
             slack differently), but finiteness must agree or improve:
             the LP is finite wherever exact is finite *)
          if Interval.is_finite exact.(i) then
            Alcotest.(check bool)
              (Printf.sprintf "edge %d finite" i)
              true (Interval.is_finite liv))
        lp)
    instances

(* ----- dimensioning + audit ---------------------------------------- *)

let test_min_buffers_pipeline () =
  let g = Topo_gen.pipeline ~stages:5 ~cap:4 in
  let thresholds = Array.make (Graph.num_edges g) None in
  let caps = Lp.min_buffers g ~thresholds in
  Alcotest.(check (array int))
    "acyclic: unit buffers suffice"
    (Array.make (Graph.num_edges g) 1)
    caps

let min_buffers_qcheck =
  Tutil.qtest ~count:300 "min_buffers capacities pass the audit"
    Tutil.seed_gen (fun seed ->
      let g = random_dense_of_seed seed in
      let p = lp_plan g in
      let thresholds = Array.map Interval.threshold p.intervals in
      let caps = Lp.min_buffers g ~thresholds in
      let g' = Graph.map_caps g (fun (e : Graph.edge) -> caps.(e.id)) in
      match Lp.audit g' ~thresholds with
      | Ok () -> true
      | Error w ->
        QCheck.Test.fail_reportf "dimensioned graph fails its audit: %a"
          Lp.pp_witness w)

let test_audit_witness () =
  (* fig2 with threshold 4 on both run edges but capacity 3 on the
     opposing chord: demand 2 * (4 - 1) = 6 > supply 3 - 1 = 2 *)
  let g = Topo_gen.fig2_triangle ~cap:3 in
  let thresholds = [| Some 4; Some 4; Some 1 |] in
  match Lp.audit g ~thresholds with
  | Ok () -> Alcotest.fail "expected a witness"
  | Error w ->
    Alcotest.(check int) "branch node" 0 w.Lp.wnode;
    Alcotest.(check int) "demand" 6 w.Lp.wdemand;
    Alcotest.(check int) "supply" 2 w.Lp.wsupply;
    Alcotest.(check (list int)) "chain edges" [ 0; 1 ]
      (List.map (fun (e : Graph.edge) -> e.id) w.Lp.wedges)

let suite =
  [
    Alcotest.test_case "rational basics" `Quick test_rational_basics;
    Alcotest.test_case "rational bignum" `Quick test_rational_bignum;
    rational_qcheck;
    Alcotest.test_case "simplex optimal" `Quick test_simplex_optimal;
    Alcotest.test_case "simplex degenerate" `Quick test_simplex_degenerate;
    Alcotest.test_case "simplex unbounded" `Quick test_simplex_unbounded;
    Alcotest.test_case "simplex phase-1" `Quick test_simplex_phase1;
    Alcotest.test_case "simplex infeasible + Farkas" `Quick
      test_simplex_infeasible;
    Alcotest.test_case "LP route + finiteness" `Quick test_lp_route;
    Alcotest.test_case "bridges stay infinite" `Quick test_lp_bridges_inf;
    lp_self_audit_qcheck "random dense" random_dense_of_seed;
    lp_self_audit_qcheck "random chorded DAG" Tutil.random_dag_of_seed;
    lp_self_audit_qcheck "random CS4" (Tutil.random_cs4_of_seed ~max_blocks:2);
    lp_safety_qcheck "random dense" random_dense_of_seed Nonprop;
    lp_safety_qcheck "random dense" random_dense_of_seed Prop;
    lp_safety_qcheck "random dense" random_dense_of_seed Relay;
    lp_safety_qcheck "random split-join" split_join_of_seed Nonprop;
    lp_safety_qcheck "random split-join" split_join_of_seed Prop;
    lp_safety_qcheck "random split-join" split_join_of_seed Relay;
    Alcotest.test_case "tightness on small instances" `Quick
      test_tightness_small;
    Alcotest.test_case "min_buffers on a pipeline" `Quick
      test_min_buffers_pipeline;
    min_buffers_qcheck;
    Alcotest.test_case "audit witness decoding" `Quick test_audit_witness;
    simplex_warm_qcheck;
    simplex_phase1_hint_qcheck;
  ]
