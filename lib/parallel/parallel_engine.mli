(** Shared-memory parallel runtime: a persistent pool of worker domains
    running any number of live application instances.

    Runs the node step of {!Fstream_runtime.Firing}, the same one as
    {!Fstream_runtime.Engine}, with kernels running concurrently on
    OCaml 5 domains. Shards, not nodes, are the pool's tasks: an
    instance's nodes are split into [min domains n] contiguous ranges
    of topological rank, and a worker claims a whole shard and runs the
    sequential engine's worklist over it ({!Fstream_runtime.Worklist}).
    A channel with both ends in one shard is touched only by the
    shard's current owner and takes no lock; a channel between shards
    synchronizes under the consumer shard's lock, and its wakes reach
    the other shard through a locked inbox that the owner absorbs
    between passes. There is no limit on graph size.

    Visit budget: a claim runs whole passes until its worklist is empty
    or it has spent 1,024 node visits, then re-queues the shard. The
    budget is checked only between passes, so a shard always finishes
    the pass it started. Quota: a worker grants one instance at most 4
    consecutive claims while another instance has a queued shard, so a
    hot tenant cannot starve the rest. Both are constants: the schedule
    does not decide deadlock freedom, so there is nothing to tune for
    correctness.

    Completion is an exact ticket count per instance: every
    queued-or-running shard holds a ticket and every wake comes from a
    running shard of the same instance, so the count dropping to zero
    is permanent quiescence — the instance finished or its remaining
    nodes are genuinely deadlocked. Nodes never block a worker (a send
    that finds a full channel parks in the node's pending ring), and
    there is no wall-clock timeout: a kernel that computes for any
    length of time holds its ticket, so it is never misreported as
    deadlock.

    Determinism: with one domain an instance is one shard and its
    schedule is the sequential engine's, pass for pass, so the report
    equals {!Fstream_runtime.Engine.run}'s in everything but [detail],
    dummy traffic included. With more shards, kernels whose decisions
    depend only on their own node's firing history make the data
    computation a Kahn network: the outcome and the data/sink counts
    equal the sequential engine's under [No_avoidance] (wedges
    included), and the data/sink counts on any run that completes.
    Dummy traffic is then timing-driven and may vary from run to run.

    A node's kernel is invoked by at most one worker at a time, but
    kernels of nodes in different shards run concurrently: a kernel
    factory must give each node its own state (e.g. its own
    [Random.State.t]), and kernel state must not be shared between
    instances submitted to the same pool.

    Grain amplification: when per-message cost dominates (tiny kernels
    on deep pipelines — EXPERIMENTS.md §P1's zero-work rows), run a
    fused plan: compile with [Compiler.Options.fuse], wrap the kernel
    factory with {!Fstream_runtime.Fused.make}, and run [fusion.graph]
    here. A whole chain then costs one firing, its internal hops plain
    function calls; each compound kernel's sub-chain state has a single
    writer at any time. Measured in bench §FU1. *)

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
      runnable at once; its shards interleave with every other live
      instance's under the fair-share quota.

      @raise Invalid_argument if the pool has been {!shutdown} (no
      worker is left to run the instance), if the graph is cyclic, or
      if [avoidance] carries a threshold table computed for a
      different graph. *)

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
(** One-shot convenience: builds a {!Fstream_runtime.Run.pool} config
    and calls {!Fstream_runtime.Run.exec}, which lands back here on a
    private single-instance pool of [domains] workers (default
    {!default_domains}). The result's [detail] is
    {!Fstream_runtime.Report.Parallel}: a preemptive execution has no
    round counter or wedge snapshot, and never reports
    [Budget_exhausted].

    [sink] receives the sequential engine's event vocabulary minus the
    scheduler-only [Round_started] and [Wedge]. Sink calls are
    serialized across domains (by a lock of the sink's own when there
    is more than one shard, by the shard's lock hand-over when there
    is one), so a non-thread-safe sink (ring buffer, JSON writer) is
    safe. [Event.Blocked] is emitted once per blocking episode (opened
    when a firing leaves sends pending on a full channel), not per
    retry. Message counts come from the channels' own counters. The
    engine never closes the sink.

    @raise Invalid_argument if [domains] is outside [1, 126], if the
    graph is cyclic, if [avoidance] carries a threshold table computed
    for a different graph, or if a kernel returns an edge id it does
    not own. Kernel exceptions propagate after the instance drains. *)
