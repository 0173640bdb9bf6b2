(** Series-parallel decomposition trees.

    A two-terminal series-parallel DAG (§III) decomposes into a binary
    tree whose leaves are the original edges and whose internal nodes
    are the serial ([Sc]) and parallel ([Pc]) compositions that build
    the graph. The paper's "multi-edge" base case appears here as a
    parallel composition of single-edge leaves, which computes the same
    values (see DESIGN.md).

    Every subtree caches the two quantities the interval algorithms
    consume: [l] — the shortest source-to-sink path by total buffer
    capacity (the paper's [L(H)]) — and [h] — the longest source-to-sink
    path by hop count (the paper's [h(H)]). Both are maintained in O(1)
    per composition by the recurrences of §IV. *)

open Fstream_graph

type t = private {
  shape : shape;
  source : Graph.node;
  sink : Graph.node;
  l : int;  (** L(H): min total capacity over source-to-sink paths *)
  h : int;  (** h(H): max hop count over source-to-sink paths *)
  n_edges : int;  (** leaves below this subtree *)
}

and shape =
  | Leaf of Graph.edge
  | Series of t * t
  | Parallel of t * t

val leaf : Graph.edge -> t

val series : t -> t -> t
(** [series h1 h2] is [Sc(h1, h2)].
    @raise Invalid_argument unless [h1.sink = h2.source]. *)

val parallel : t -> t -> t
(** [parallel h1 h2] is [Pc(h1, h2)].
    @raise Invalid_argument unless sources and sinks coincide. *)

val edges : t -> Graph.edge list
(** The leaves, left to right. *)

val iter_edges : t -> (Graph.edge -> unit) -> unit

val series_spine : t -> Graph.edge list
(** The leaves that sit under no [Parallel] composition, left to right:
    the edges every source-to-sink path must cross. For the SP graph the
    tree decomposes, these are exactly the bridges of the underlying
    undirected graph ({!Fstream_graph.Articulation.bridges}) — the edges
    on no undirected cycle, and hence the only SP edges a kernel-fusion
    pass may collapse without disturbing cycle structure. The
    correspondence is property-checked in [test/test_fusion.ml]. *)

val check_against : t -> Graph.t -> bool
(** Structural audit used by tests: the tree's leaves are exactly the
    graph's edges (each once), every composition is well-connected, and
    the tree's terminals are the graph's unique source and sink. *)

val refresh : Graph.t -> t -> t
(** [refresh g t] rebuilds [t] with every leaf replaced by [g]'s
    current record at the same edge id, recomputing the [l]/[h]
    summaries on the way up. This re-decomposes a graph after an
    id-stable, structure-preserving edit (capacity changes only)
    without re-running recognition.
    @raise Invalid_argument if a leaf id is out of range in [g]. *)
