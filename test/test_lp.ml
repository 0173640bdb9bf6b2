(* The LP backend: the oracle simplex's fixtures, the graph
   algorithms against the oracle's programs, encoding safety (every
   produced table model-checked wedge-free), tightness against the
   exact backend, dimensioning, and the audit/witness direction. *)

open Fstream_graph
open Fstream_core
module R = Lp_oracle.Rational
module Simplex = Lp_oracle.Simplex
module Programs = Lp_oracle.Programs
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
    (Simplex.maximize
       ~objective:[| R.one; R.one |]
       ~rows:[| ([| r 1; r 2 |], r 4); ([| r 3; r 1 |], r 6) |]
       ())
  with
  | Simplex.Optimal { objective; primal; dual } ->
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
    (Simplex.maximize
       ~objective:[| R.one; R.one |]
       ~rows:
         [|
           ([| r 1; r 0 |], r 1);
           ([| r 0; r 1 |], r 1);
           ([| r 1; r 1 |], r 2);
           ([| r 2; r 2 |], r 4);
         |]
       ())
  with
  | Simplex.Optimal { objective; _ } ->
    Alcotest.check rational_t "objective" (r 2) objective
  | _ -> Alcotest.fail "expected Optimal"

let test_simplex_unbounded () =
  match
    (Simplex.maximize ~objective:[| R.one; R.zero |]
       ~rows:[| ([| r 0; r 1 |], r 1) |] ())
  with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected Unbounded"

let test_simplex_phase1 () =
  (* a negative RHS forces phase 1: min x at x >= 1 *)
  match
    (Simplex.maximize ~objective:[| R.minus_one |]
       ~rows:[| ([| r (-1) |], r (-1)); ([| r 1 |], r 3) |] ())
  with
  | Simplex.Optimal { objective; primal; _ } ->
    Alcotest.check rational_t "objective" (r (-1)) objective;
    Alcotest.check rational_t "x" (r 1) primal.(0)
  | _ -> Alcotest.fail "expected Optimal"

let test_simplex_infeasible () =
  (* x <= 2 and x >= 3 *)
  let rows = [| ([| r 1 |], r 2); ([| r (-1) |], r (-3)) |] in
  match Simplex.maximize ~objective:[| R.one |] ~rows () with
  | Simplex.Infeasible { farkas } ->
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

(* ----- the graph algorithms against the oracle's programs ----- *)

let families =
  [
    ("random SP", fun seed -> Tutil.random_sp_of_seed seed);
    ("random ladder", fun seed -> Tutil.random_ladder_of_seed seed);
    ("random CS4", fun seed -> Tutil.random_cs4_of_seed seed);
    ("random dense", Tutil.random_dense_of_seed);
    ("random chorded DAG", Tutil.random_dag_of_seed);
  ]

(* Per cyclic component, the table's slack sum (interval - 1) must be
   the optimum the oracle simplex finds for the program with its box
   row. *)
let check_objectives name g =
  let ivals, _ = Lp.resolve g in
  List.iter
    (fun (ids, z) ->
      let slack =
        List.fold_left
          (fun acc id ->
            match ivals.(id) with
            | Interval.Fin { num; den } ->
              R.add acc (R.sub (R.make num den) R.one)
            | Interval.Inf ->
              Alcotest.failf "%s: component edge e%d is Inf" name id)
          R.zero ids
      in
      if not (R.equal slack z) then
        Alcotest.failf "%s: component at e%d: slack %s, oracle optimum %s" name
          (List.hd ids) (R.to_string slack) (R.to_string z))
    (Programs.interval_objectives g)

let objective_qcheck (name, of_seed) =
  Tutil.qtest ~count:300 (name ^ ": objective = oracle simplex per component")
    Tutil.seed_gen (fun seed ->
      check_objectives name (of_seed seed);
      true)

let test_objective_layered () =
  for layers = 2 to 20 do
    for width = 3 to 6 do
      check_objectives
        (Printf.sprintf "layered %dx%d" layers width)
        (Topo_gen.layered_dense ~layers ~width ~cap:2)
    done
  done

(* the programs test/cram/lp.t solves, edited ones included *)
let test_objective_cram () =
  let edited g script =
    match Result.bind (Edit.parse_ops script) (Edit.apply g) with
    | Ok d -> d.Edit.graph
    | Error e -> Alcotest.fail e
  in
  let layered = Topo_gen.layered_dense ~layers:7 ~width:3 ~cap:2 in
  let cs4 =
    Topo_gen.random_cs4 (Random.State.make [| 3 |]) ~blocks:3 ~block_edges:8
      ~max_cap:4
  in
  List.iter
    (fun (name, g) -> check_objectives name g)
    [
      ("butterfly", Topo_gen.fig4_butterfly ~cap:2);
      ("fig2", Topo_gen.fig2_triangle ~cap:2);
      ("layered-dense", layered);
      ("layered-dense resized", edited layered "resize e0 3");
      ("random-cs4", cs4);
      ("random-cs4 edited", edited cs4 "resize e0 1; add-stage e5 2 2");
    ]

(* a random threshold table: about a quarter of the edges never send *)
let random_table rng g =
  Array.init (Graph.num_edges g) (fun _ ->
      if Random.State.int rng 4 = 0 then None
      else Some (1 + Random.State.int rng 3))

let table_qcheck (name, of_seed) =
  Tutil.qtest ~count:300
    (name ^ ": audit verdict, min_buffers = oracle on random tables")
    Tutil.seed_gen (fun seed ->
      let g = of_seed seed in
      let thresholds = random_table (Tutil.rng_of (seed + 0x5a)) g in
      Result.is_ok (Lp.audit g ~thresholds)
      = Programs.audit_feasible g ~thresholds
      && Lp.min_buffers g ~thresholds = Programs.min_buffers g ~thresholds)

(* The optimum is canonical: renumber the nodes and reorder the edges,
   and every edge keeps its interval. *)
let canonical_qcheck (name, of_seed) =
  Tutil.qtest ~count:300 (name ^ ": table independent of numbering")
    Tutil.seed_gen (fun seed ->
      let g = of_seed seed in
      let rng = Tutil.rng_of (seed + 0xc4) in
      let shuffled k =
        let key = Array.init k (fun _ -> Random.State.bits rng) in
        List.init k Fun.id
        |> List.sort (fun i j -> compare (key.(i), i) (key.(j), j))
        |> Array.of_list
      in
      let m = Graph.num_edges g in
      let node = shuffled (Graph.num_nodes g) and edge = shuffled m in
      (* edge [i] of [g] is edge [edge.(i)] of [h] *)
      let back = Array.make m 0 in
      Array.iteri (fun i j -> back.(j) <- i) edge;
      let h =
        Graph.make ~nodes:(Graph.num_nodes g)
          (List.init m (fun j ->
               let e = Graph.edge g back.(j) in
               (node.(e.src), node.(e.dst), e.cap)))
      in
      let a, _ = Lp.resolve g and b, _ = Lp.resolve h in
      List.for_all
        (fun i -> Interval.equal a.(i) b.(edge.(i)))
        (List.init m Fun.id))

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
    Alcotest.test_case "objective = oracle on layered-dense 2-20 x 3-6" `Quick
      test_objective_layered;
    Alcotest.test_case "objective = oracle on the lp.t programs" `Quick
      test_objective_cram;
  ]
  @ List.map objective_qcheck families
  @ List.map table_qcheck families
  @ List.map canonical_qcheck families
