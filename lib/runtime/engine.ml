open Fstream_graph
module Event = Fstream_obs.Event

type kernel = Firing.kernel

type avoidance = Firing.avoidance =
  | No_avoidance
  | Propagation of Fstream_core.Thresholds.t
  | Non_propagation of Fstream_core.Thresholds.t

let run ?max_rounds ?deadlock_dump ?sink ~graph:g ~kernels ~inputs ~avoidance
    () =
  let n = Graph.num_nodes g in
  let order = Topo.order_exn g in
  let rank = Array.make n 0 in
  Array.iteri (fun r v -> rank.(v) <- r) order;
  (* The worklist ({!Worklist}), indexed by topological rank. *)
  let wl = Worklist.create n in
  let hooks = Worklist.hooks wl rank in
  let fr =
    Firing.create ~who:"Engine" ?sink ~hooks ~graph:g ~kernels ~inputs
      ~avoidance ()
  in
  let obs = Firing.observed fr and ev = Firing.event fr in
  let m = Graph.num_edges g in
  let default_budget = ((inputs + 2) * ((2 * m) + n + 2) * 2) + 64 in
  let budget = Option.value max_rounds ~default:default_budget in
  let rounds = ref 0 in
  let outcome = ref None in
  let wedge = ref None in
  (* A round visits the armed nodes in topological order. Visiting
     every node instead (the test-side sweep) performs the same state
     transitions, so the {!Report.t} — round count and wedge snapshot
     included — is the same: a node is left unarmed only when its last
     visit made no progress, and that leaves its state unchanged, so it
     stays unable to progress until a wake —
     - a push onto one of its empty inputs, which arms it for this
       round, where the sweep's visit still lies ahead;
     - a pop from one of its full outputs, which arms it for the next
       round, its visit in this one being past.
     A visit that made progress re-arms its node for the next round;
     when the node can do no more, that visit is a no-op.

     Round 1 would visit every node, but every channel starts empty,
     so a non-source node's first visit is a no-op that emits nothing:
     only the sources are armed. *)
  Array.iteri
    (fun r v -> if Graph.in_degree g v = 0 then Worklist.arm wl r)
    order;
  let visit = Firing.visitor fr order in
  while !outcome = None do
    incr rounds;
    if obs then ev (Event.Round_started { round = !rounds });
    if !rounds > budget then outcome := Some Report.Budget_exhausted
    else begin
      ignore (Worklist.pass wl visit);
      (* wakes come only from pushes and pops, so a round leaves the
         worklist empty exactly when none of its visits made progress *)
      if Worklist.is_empty wl then
        if Firing.drained fr then outcome := Some Report.Completed
        else begin
          outcome := Some Report.Deadlocked;
          if obs then ev (Event.Wedge { round = !rounds });
          wedge := Some (Firing.snapshot fr);
          Option.iter (fun ppf -> Firing.pp_state ppf fr) deadlock_dump
        end
    end
  done;
  Firing.report fr (Option.get !outcome)
    (Report.Sequential { rounds = !rounds; wedge = !wedge })
