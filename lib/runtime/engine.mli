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
    opaque to the engine, matching the paper's model where filtering
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

val run :
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
    from the graph's edge capacities. [max_rounds] defaults to a
    generous bound; an execution that exceeds it reports
    [Budget_exhausted].

    Deterministic: each round visits the runnable nodes in topological
    order. The worklist is a bitset over topological rank, scanned
    upward by a cursor each round; a wake sets a node's bit, so where
    it lands relative to the cursor decides the round:
    - a push onto an empty channel wakes the consumer, which lies
      later in topological order than the visited producer — above the
      cursor, so it is visited this round;
    - pops that drain a full channel wake its producer, which lies
      earlier — at or below the cursor, so it waits for the next
      round;
    - a visit that made progress re-arms its own node for the next
      round (if the node can do no more, that visit is a no-op).
    Round 1 arms only the sources. A node left unarmed could not have
    progressed had it been visited, so the executed transitions — and
    the {!Report.t}, round count and wedge snapshot included — equal
    those of a reference loop that visits every node every round
    (differentially tested in [test/test_sched.ml]). Only
    [Event.Blocked] differs, since it narrates visits.

    A visit retries the node's pending sends and dummy slots, then
    fires it at most once.

    [sink] receives the typed event stream of the run (default: no
    instrumentation; passing {!Fstream_obs.Sink.null} is equivalent
    and equally cheap — event construction is skipped). The engine
    never closes the sink.

    @raise Invalid_argument if [avoidance] carries a threshold table
    computed for a different graph. *)
