(** Kernel fusion: partition a topology into compound kernels.

    Both engines visit every node of a chain once per message, so a
    long chain of cheap kernels pays a channel hop and a visit per hop
    (EXPERIMENTS.md §P1). Fusion collapses such chains into single
    compound nodes: the internal channels disappear (at runtime they
    become stack locals inside the compound kernel — no ring buffers, no
    per-edge dummy state), while boundary channels keep their original
    capacities and ids' relative order.

    {2 Critical boundaries}

    An edge [u -> v] is {e fusable} — collapsed into a chain — only when
    all of the following hold; every other edge is a {e critical
    boundary} and survives into the fused graph:

    - [u] has out-degree 1 and [v] has in-degree 1 (cuts at splitters,
      mergers, and multi-use nodes);
    - the edge is a bridge of the underlying undirected multigraph
      ({!Fstream_graph.Articulation.bridges}) — it lies on no undirected
      cycle. For an SP graph these are exactly the series-spine edges of
      the decomposition tree ({!Fstream_spdag.Sp_tree.series_spine});
    - [v] is not a sink: sinks are where the application observes the
      stream, and fusing a filtering chain into a sink would move the
      measurement point upstream of the chain's filters;
    - neither endpoint is user-pinned ([?pin]);
    - both endpoints have the same filter-behaviour class
      ([?filter_class]), so a fused kernel has one filtering story.

    {2 Why intervals are preserved}

    Deadlock-avoidance intervals (Theorems IV.1/IV.2) depend only on the
    undirected cycles of the topology: each cycle constrains the edges
    on it through its minimum buffering [L] and hop count [h]. A fusable
    edge is a bridge, so {e no} cycle passes through the interior of any
    fused chain. Contracting the chain therefore maps the cycles of the
    original graph one-to-one onto the cycles of the fused graph, with
    identical [L] (boundary capacities are kept) and identical hop
    counts over surviving edges. Hence the interval of every boundary
    edge is literally unchanged, and {!derive_intervals} — which maps
    the original plan's intervals through the edge correspondence — is
    equal to recompiling on the fused graph. Both facts are
    property-checked in [test/test_fusion.ml], and the end-to-end claim
    (fusion neither introduces nor masks reachable deadlocks) is checked
    two-directionally with {!Fstream_verify.Verify}.

    Dummy {e timing} does change: a compound node runs its gap check
    whenever its head fires, even on inputs the chain interior later
    filters, so dummies can originate earlier than the tail node would
    have sent them. Earlier dummies only relax downstream waits, so the
    conservative direction of the safety argument is unaffected. *)

open Fstream_graph

type t = private {
  original : Graph.t;
  graph : Graph.t;  (** the fused topology *)
  group_of : int array;  (** original node -> fused node *)
  members : int array array;
      (** fused node -> original members in chain order; singleton for
          unfused nodes *)
  edge_of : int array;
      (** original edge id -> fused edge id, or [-1] for internal
          (collapsed) edges *)
  orig_edge : int array;  (** fused edge id -> original edge id *)
}

val fuse :
  ?pin:(Graph.node -> bool) ->
  ?filter_class:(Graph.node -> int) ->
  ?bridges:bool array ->
  Graph.t ->
  t
(** Maximal partition under the boundary rules above. [bridges], when
    given, must be [g]'s {!Fstream_graph.Articulation.bridges}. Deterministic:
    fused node ids are assigned by scanning chain heads in original node
    order, fused edge ids preserve original relative order. [g] need not
    be a DAG: on a cyclic graph the bridge condition alone already
    guarantees chains terminate. *)

val is_identity : t -> bool
(** No edge was collapsed; the fused graph is the original graph
    (same node and edge numbering). *)

val internal_edges : t -> int
(** Number of collapsed channels, [num_edges original - num_edges graph]. *)

val derive_intervals : t -> Interval.t array -> Interval.t array
(** [derive_intervals t ivals] maps a per-original-edge interval table
    to the fused topology: boundary edges keep their interval, internal
    edges are dropped. Equal to recompiling the same algorithm on
    [t.graph] (see above).
    @raise Invalid_argument if [ivals] is not indexed by the original
    edges. *)

val pp : Format.formatter -> t -> unit
(** Human-readable partition: one line per compound kernel listing its
    member chain. *)
