(* Shared helpers for the test suites. *)

open Fstream_graph
open Fstream_core

let interval : Interval.t Alcotest.testable =
  Alcotest.testable Interval.pp Interval.equal

let ival_array : Interval.t array Alcotest.testable =
  Alcotest.(array interval)

let check_intervals msg expected actual =
  Alcotest.check ival_array msg expected actual

let rng_of seed = Random.State.make [| seed; 0x5f1ee7 |]

(* Random graph families keyed by an integer seed, so QCheck can use a
   plain int generator (with shrinking) while the graphs stay
   reproducible. *)
let random_sp_of_seed ?(max_edges = 16) seed =
  let rng = rng_of seed in
  Fstream_workloads.Topo_gen.random_sp rng
    ~target_edges:(2 + Random.State.int rng (max_edges - 1))
    ~max_cap:7

let random_ladder_of_seed ?(max_rungs = 5) seed =
  let rng = rng_of seed in
  Fstream_workloads.Topo_gen.random_ladder rng
    ~rungs:(1 + Random.State.int rng max_rungs)
    ~segment_edges:(1 + Random.State.int rng 4)
    ~max_cap:7

let random_cs4_of_seed ?(max_blocks = 4) seed =
  let rng = rng_of seed in
  Fstream_workloads.Topo_gen.random_cs4 rng
    ~blocks:(1 + Random.State.int rng max_blocks)
    ~block_edges:(2 + Random.State.int rng 9)
    ~max_cap:7

(* A random layered DAG, 1-3 layers of width 1-3: at most the 1,299
   simple cycles of a full 3 x 3 [layered_dense]. *)
let random_dense_of_seed seed =
  let rng = rng_of seed in
  Fstream_workloads.Topo_gen.random_dense rng
    ~layers:(1 + Random.State.int rng 3)
    ~width:(1 + Random.State.int rng 3)
    ~max_cap:4

(* A random two-terminal DAG that is usually *not* CS4: a random SP
   skeleton plus random forward chords. *)
let random_dag_of_seed seed =
  let rng = rng_of seed in
  let g0 =
    Fstream_workloads.Topo_gen.random_sp rng
      ~target_edges:(3 + Random.State.int rng 8)
      ~max_cap:4
  in
  let n = Graph.num_nodes g0 in
  let rank = Topo.rank g0 in
  let edges =
    ref
      (List.map (fun (e : Graph.edge) -> (e.src, e.dst, e.cap)) (Graph.edges g0))
  in
  for _ = 1 to Random.State.int rng 4 do
    let a = Random.State.int rng n and b = Random.State.int rng n in
    if rank.(a) < rank.(b) then
      edges := (a, b, 1 + Random.State.int rng 3) :: !edges
  done;
  Graph.make ~nodes:n (List.rev !edges)

(* A random, sequentially valid edit script: each candidate op is
   generated blindly against the graph as edited so far and kept only
   if [Edit.apply] accepts it — per-op validity composes, so the whole
   script is valid on the base graph. Scripts may still break
   compilability (disconnect the graph, add a back edge): those cases
   exercise the error path of the differential, where incremental and
   full compilation must fail identically. *)
let random_ops rng g0 =
  let cur = ref g0 and ops = ref [] in
  let n = 1 + Random.State.int rng 4 in
  for _ = 1 to n do
    let g = !cur in
    let ne = Graph.num_edges g and nn = Graph.num_nodes g in
    let cap () = 1 + Random.State.int rng 6 in
    let candidate =
      match Random.State.int rng 5 with
      | 0 -> Edit.Resize { edge = Random.State.int rng ne; cap = cap () }
      | 1 ->
        (* bias forward (generator node ids are topological) so most
           scripts stay acyclic; a removal can still disconnect *)
        let a = Random.State.int rng nn and b = Random.State.int rng nn in
        Edit.Add_edge { src = min a b; dst = max a b; cap = cap () }
      | 2 when ne > 1 -> Edit.Remove_edge { edge = Random.State.int rng ne }
      | 3 ->
        Edit.Add_stage
          { edge = Random.State.int rng ne; cap_in = cap (); cap_out = cap () }
      | _ -> Edit.Remove_stage { node = Random.State.int rng nn; cap = None }
    in
    match Edit.apply g [ candidate ] with
    | Ok d ->
      ops := candidate :: !ops;
      cur := d.Edit.graph
    | Error _ -> ()
  done;
  List.rev !ops

(* Reproducibility override: [QCHECK_SEED=n dune runtest] pins the
   generator state of every qcheck suite that goes through [qtest] (the
   same variable qcheck's own runner honours), so a failing case can be
   replayed exactly. Each test gets a fresh state from the seed — tests
   must not couple through shared generator state. *)
let qcheck_seed =
  Option.bind (Sys.getenv_opt "QCHECK_SEED") (fun s ->
      int_of_string_opt (String.trim s))

let qtest ?(count = 200) name gen prop =
  let rand = Option.map (fun seed -> Random.State.make [| seed |]) qcheck_seed in
  QCheck_alcotest.to_alcotest ?rand (QCheck.Test.make ~count ~name gen prop)

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.nat

(* The reference sequential scheduler: every round visits every node in
   topological order, through the same {!Fstream_runtime.Firing.visitor}
   as [Engine.run], with the same budget, outcome and wedge logic.
   [Engine.run] visits only the nodes its worklist armed; [test_sched] checks that the skipped
   visits were no-ops, i.e. that both reports are equal. *)
let sweep ?max_rounds ?sink ~graph:g ~kernels ~inputs ~avoidance () =
  let open Fstream_runtime in
  let module Event = Fstream_obs.Event in
  let hooks =
    { Firing.guard = None; woke = (fun _ _ -> ()); freed = (fun _ _ _ -> ()) }
  in
  let fr =
    Firing.create ~who:"sweep" ?sink ~hooks ~graph:g ~kernels ~inputs
      ~avoidance ()
  in
  let obs = Firing.observed fr in
  let order = Topo.order_exn g in
  let visit = Firing.visitor fr order in
  let rec sweep_round r p =
    if r = Array.length order then p else sweep_round (r + 1) (visit r || p)
  in
  let budget =
    match max_rounds with
    | Some b -> b
    | None ->
      ((inputs + 2) * ((2 * Graph.num_edges g) + Graph.num_nodes g + 2) * 2)
      + 64
  in
  let rec loop round =
    if obs then Firing.event fr (Event.Round_started { round });
    if round > budget then (Report.Budget_exhausted, None, round)
    else if sweep_round 0 false then loop (round + 1)
    else if Firing.drained fr then (Report.Completed, None, round)
    else begin
      if obs then Firing.event fr (Event.Wedge { round });
      (Report.Deadlocked, Some (Firing.snapshot fr), round)
    end
  in
  let outcome, wedge, rounds = loop 1 in
  Firing.report fr outcome (Report.Sequential { rounds; wedge })
