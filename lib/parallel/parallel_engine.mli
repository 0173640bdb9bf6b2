(** Shared-memory parallel runtime: a persistent pool of worker domains
    driving sharded ready-queues, multiplexing any number of live
    application instances.

    Runs the node step of {!Fstream_runtime.Firing}, the same one as
    {!Fstream_runtime.Engine} — min-seq firing rule, per-node pending
    sends on full channels, coalescing one-slot dummy mouths, EOS
    termination — but with node kernels running concurrently on OCaml
    5 domains. Nodes are lightweight tasks, not domains: each submitted
    instance's graph is partitioned into [domains] contiguous shards,
    each with its own lock and ready-queue of runnable nodes maintained
    from channel occupancy transitions (the parallel analogue of the
    sequential engine's worklist); workers drain their home shard and
    steal from the others when it runs dry. There is no limit on graph
    size.

    Multi-tenancy ({!Pool}): one pool serves many concurrently
    submitted instances. Workers rotate between instances under a
    fair-share quota — at most 4 consecutive task grants to one
    instance while another has queued work — so a hot tenant cannot
    starve the rest (the instance-level analogue of the per-node
    bound: a task execution fires its node at most 32 times before it
    re-queues itself). Both bounds are constants: the schedule does
    not decide deadlock freedom, so there is nothing to tune for
    correctness. Completion is detected per instance by a live-task
    ticket counter: every queued-or-running task holds a ticket, all
    wakes come from running tasks of the same instance, so the count
    dropping to zero is a permanent quiescence — the instance finished
    or its remaining nodes are genuinely deadlocked (nodes never block
    a worker: a send that finds a full channel parks in the node's
    pending ring and the node leaves the runnable set, so pool-level
    scheduling cannot wedge). There is no wall-clock timeout: a kernel
    that computes for any length of time holds its ticket, so it is
    never misreported as deadlock.

    Determinism: kernels whose decisions depend only on their own
    node's firing history make the data computation a Kahn network, so
    the outcome and the data/sink message counts equal the sequential
    engine's under [No_avoidance] (including deadlock wedges), and the
    data/sink counts on any run that completes. Dummy traffic is
    timing-driven and may differ from the sequential engine and from
    run to run.

    Kernels are invoked for one node by at most one worker at a time
    (consecutive firings may land on different domains, with the
    happens-before edges the scheduler provides), but different nodes'
    kernels run concurrently: a kernel factory must give each node its
    own state (e.g. its own [Random.State.t]), and kernel state must
    not be shared between instances submitted to the same pool.

    Grain amplification: when per-message scheduling overhead dominates
    (tiny kernels on deep pipelines — EXPERIMENTS.md §P1's zero-work
    rows), run a fused plan instead of scheduling every node: compile
    with [Compiler.Options.fuse], wrap the kernel factory with
    {!Fstream_runtime.Fused.make}, and run [fusion.graph] here. A whole
    chain then costs one task per firing, with its internal hops as
    plain function calls. The per-node exclusivity guarantee above
    extends to compound kernels: each one's sub-chain state (the
    {!Fstream_runtime.Fused.fired} counters) has a single writer at any
    time. Measured in bench §FU1. *)

open Fstream_graph

val default_domains : unit -> int
(** Worker domains when none are given: derived from
    [Domain.recommended_domain_count ()], at least 1, at most 8. *)

(** A persistent worker pool serving many application instances. *)
module Pool : sig
  type t

  type job
  (** A submitted instance; a handle to {!await} its report. *)

  val create : ?domains:int -> unit -> t
  (** Spawn [domains] worker domains (default {!default_domains}; must
      be in [1, 126]) that live until {!shutdown}. *)

  val domains : t -> int

  val submit :
    t ->
    ?sink:Fstream_obs.Sink.t ->
    graph:Graph.t ->
    kernels:(Graph.node -> Fstream_runtime.Engine.kernel) ->
    inputs:int ->
    avoidance:Fstream_runtime.Engine.avoidance ->
    unit ->
    job
  (** Start an instance of the application on [inputs] external
      sequence numbers; returns immediately. Argument meanings and
      validation are exactly {!run}'s. The instance's sources become
      runnable at once; its tasks interleave with every other live
      instance's under the fair-share quota.

      @raise Invalid_argument if the pool has been {!shutdown} (no
      worker is left to run the instance), or if [avoidance] carries
      a threshold table computed for a different graph. *)

  val await : job -> Fstream_runtime.Report.t
  (** Block until the instance reaches permanent quiescence and return
      its report ({!run}'s contract). Re-raises the instance's kernel
      (or kernel-validation) exception if one aborted it. [await] may
      be called at most once per job, from any thread that is not a
      pool worker. *)

  val shutdown : t -> unit
  (** Stop and join the worker domains. Call only after every
      submitted job has been awaited; jobs still live at shutdown are
      abandoned un-finalized and their [await] never returns. Every
      later {!submit} raises [Invalid_argument]. *)
end

val run :
  ?domains:int ->
  ?sink:Fstream_obs.Sink.t ->
  graph:Graph.t ->
  kernels:(Graph.node -> Fstream_runtime.Engine.kernel) ->
  inputs:int ->
  avoidance:Fstream_runtime.Engine.avoidance ->
  unit ->
  Fstream_runtime.Report.t
(** One-shot convenience: a thin wrapper that builds a
    {!Fstream_runtime.Run.pool} config and calls
    {!Fstream_runtime.Run.exec} — which lands back here on a private
    single-instance pool (create, submit, await, shutdown). Run the
    application on [inputs] external sequence numbers with a pool of
    [domains] worker domains (default {!default_domains}; [domains =
    1] is a valid single-worker execution of the same machinery). The
    result's [detail] is {!Fstream_runtime.Report.Parallel}: there is
    no round counter or wedge snapshot in a preemptive execution, and
    the outcome never reports [Budget_exhausted].

    [sink] receives the same typed event vocabulary as the sequential
    engine, minus the scheduler-only events ([Round_started], [Wedge]).
    Sink calls are serialized across domains, so a non-thread-safe
    sink (ring buffer, JSON writer) is safe; the interleaving reflects
    the actual schedule and differs from run to run.
    [Event.Blocked] is emitted once per blocking episode (opened when
    a firing leaves sends pending on a full channel), not per retry.
    Message counts in the returned report come from the channels' own
    counters, the same ground truth as the sequential engine's. The
    engine never closes the sink.

    @raise Invalid_argument if [domains] is outside [1, 126], if
    [avoidance] carries a threshold table computed for a different
    graph, or if a kernel returns an edge id it does not own. Kernel exceptions propagate after the instance drains. *)
