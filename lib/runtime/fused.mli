(** Running a fused plan: compound kernels over the fused topology.

    {!Fstream_core.Fusion} collapses chains of single-in/single-out
    bridge nodes into compound nodes. This module builds the matching
    [kernels] argument for {!Engine.run} / the parallel pool: each
    compound kernel executes its member chain in order, passing data
    through OCaml locals — the collapsed channels have no ring buffers,
    no per-edge dummy state, and cost nothing to traverse. If an
    interior member filters (returns no data on its sole out-edge), the
    chain stops there for that sequence number, exactly as the unfused
    pipeline would have stalled that hop's successors.

    Edge-id translation is part of the job: user kernels speak
    original-graph edge ids, the engine speaks fused-graph ids. The
    wrapper translates [got] on the way in and the tail's kept edges on
    the way out, so existing kernel factories
    ({!Filters.for_graph} over the original graph) work unchanged. A
    one-edge [got] maps to a list built once per fused edge, and the
    tail's translation is reused while the tail keeps returning the same
    list (the {!Filters} kernels return their out-list itself when
    every edge is kept).

    A hop allocates nothing: each member's kernel is called directly,
    its output is checked against the member's own out-edges by one
    array lookup per id, and the next member's one-edge [got] list is
    built once per plan.

    Firings remain attributable to the pre-fusion topology two ways:
    [fired] counts every sub-kernel execution per {e original} node,
    and an optional [sink] receives one
    {!Fstream_obs.Event.Subnode_fired} per sub-kernel execution.
    Per-original-node firing counts are preserved by fusion for
    node-deterministic kernels — the differential suite checks them
    against the unfused run's metrics. *)

open Fstream_graph
open Fstream_core

type t

val make :
  ?sink:Fstream_obs.Sink.t ->
  Fusion.t ->
  (Graph.node -> Engine.kernel) ->
  t
(** [make fusion orig_kernels] instantiates the compound kernels. Each
    original node's kernel factory is invoked exactly once, as the
    engines do. [sink] receives [Subnode_fired] events; sinks are
    single-threaded values and compound kernels run on worker domains
    under the pool, so pass a sink only for sequential-engine runs —
    for pool runs use {!fired}. *)

val kernels : t -> Graph.node -> Engine.kernel
(** The [kernels] argument for running [fusion.graph]. Kernel results
    are validated per sub-node: a member returning an edge id it does
    not own raises [Invalid_argument] naming the {e original} node and
    edge, as {!Engine.run} does for unfused kernels. *)

val fired : t -> int array
(** Snapshot of sub-kernel executions per original node. Safe to read
    after a run completes (sequential or pool: members are disjoint
    across compound nodes and the pool never runs one node's kernel
    concurrently with itself, so each counter has one writer). *)
