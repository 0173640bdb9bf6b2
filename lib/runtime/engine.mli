(** Deterministic discrete scheduler for filtering streaming DAGs.

    Runs the node step of {!Firing} — the execution model of §II.A
    plus the two deadlock-avoidance wrappers of §II.B — in rounds over
    the nodes in topological order. End-of-stream markers make a
    drained computation distinguishable from a deadlock, so
    [Deadlocked] means a genuine no-progress state with work
    outstanding.

    The run's result is the engine-agnostic {!Report.t}; its full
    behaviour can additionally be narrated as a typed
    {!Fstream_obs.Event} stream through the [sink] argument, from which
    {!Report.of_events} reconstructs the same report bit-for-bit. *)

open Fstream_graph

type kernel = seq:int -> got:int list -> int list
(** [kernel ~seq ~got] — [got] lists the in-edge ids that delivered
    data for [seq] (empty for a source node receiving external input
    [seq]); the result lists the out-edge ids to send data on. Ids
    outside the node's out-edges are rejected at runtime. Kernels are
    opaque to the scheduler, matching the paper's model where filtering
    decisions are invisible to the compiler. *)

type avoidance = Firing.avoidance =
  | No_avoidance
  | Propagation of Fstream_core.Thresholds.t
  | Non_propagation of Fstream_core.Thresholds.t
      (** per-channel send thresholds, from
          {!Fstream_core.Compiler.send_thresholds} /
          {!Fstream_core.Compiler.propagation_thresholds}. The table
          carries the fingerprint of the graph it was computed for and
          {!run} rejects mismatches. *)

type scheduler =
  | Sweep
      (** reference scheduler: every round visits every node in
          topological order — O(n) per round even when almost nothing
          is runnable *)
  | Ready
      (** event-driven scheduler: a worklist of runnable nodes
          maintained incrementally from {!Channel} occupancy
          transitions, drained in topological-rank order each round.
          Per-round cost is proportional to actual activity, and the
          executed transitions — hence the resulting {!Report.t},
          including the round count and wedge snapshot — are
          bit-identical to [Sweep] (differentially tested in
          [test/test_sched.ml]) *)

val run :
  ?scheduler:scheduler ->
  ?dense_below:int ->
  ?batch:int ->
  ?max_rounds:int ->
  ?deadlock_dump:Format.formatter ->
  ?sink:Fstream_obs.Sink.t ->
  graph:Graph.t ->
  kernels:(Graph.node -> kernel) ->
  inputs:int ->
  avoidance:avoidance ->
  unit ->
  Report.t
(** Execute the application on [inputs] external sequence numbers
    (0 .. inputs-1, presented to every source). Channel capacities come
    from the graph's edge capacities. Deterministic: runnable nodes are
    processed in topological order within each round, whichever
    [scheduler] (default {!Ready}) maintains the runnable set.
    [max_rounds] defaults to a generous bound; an execution that
    exceeds it reports [Budget_exhausted].

    [dense_below] (default 512): below this many nodes, [Ready] runs
    the sweep loop instead of maintaining the worklist — on graphs
    that fit in cache the wake bookkeeping costs more than visiting
    everything (bench §C6). The executed transition sequence, and so
    the report, is identical; only the observability stream differs,
    because the sweep visits nodes the worklist never wakes and so
    emits [Event.Blocked] on their blocking episodes. Pass
    [~dense_below:0] to force the worklist at every size (the
    differential suite does).

    [batch] (default 1) lets a visited node fire up to that many times
    in a row while it stays runnable (each firing's sends all landed
    and its pops kept the inputs non-empty), amortizing scheduler
    overhead on deep pipelines. For kernels whose decisions depend
    only on their own node's firing history the model is a Kahn
    network, so batching never changes the computation itself: under
    [No_avoidance] the outcome and the data/sink message counts are
    batch-invariant, and on any run that completes so are the
    data/sink counts. Dummy traffic, by contrast, is timing-driven —
    batching shifts when the coalescing dummy slots flush and when
    thresholds come due, so the number of dummies emitted and their
    delivered/dropped split may change, and under [Propagation] on
    workloads outside its soundness preconditions even the outcome can
    move with them (dummies are a liveness mechanism). Round numbering
    is compressed. See DESIGN.md, "Memory behaviour". The two
    schedulers remain bit-identical at equal [batch]. The default
    preserves the unbatched engine's behaviour exactly.
    @raise Invalid_argument if [batch < 1].

    [sink] receives the typed event stream of the run (default: no
    instrumentation; passing {!Fstream_obs.Sink.null} is equivalent
    and equally cheap — event construction is skipped). The engine
    never closes the sink.

    @raise Invalid_argument if [avoidance] carries a threshold table
    computed for a different graph. *)
