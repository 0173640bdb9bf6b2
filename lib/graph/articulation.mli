(** Articulation points and biconnected components of the underlying
    undirected multigraph.

    The CS4 decomposition (Theorem V.7) splits a two-terminal DAG at its
    articulation points into serially-composed blocks, each of which must
    be an SP-DAG or an SP-ladder. Biconnected components give exactly
    those blocks. Parallel edges are handled as genuine 2-cycles: the
    endpoints of a multi-edge are biconnected. *)

val articulation_points : Graph.t -> Graph.node list
(** Ascending list of cut vertices of the undirected multigraph.
    Assumes the graph is connected. *)

val biconnected_components : Graph.t -> Graph.edge list list
(** Partition of the edges into biconnected components (Hopcroft–Tarjan).
    Components are listed in no particular order; edges within a
    component are in increasing id order. Assumes connectivity. *)

val bridges : Graph.t -> bool array
(** [bridges g] is a per-edge-id array marking the bridges of the
    underlying undirected multigraph: edges whose removal disconnects
    their endpoints, i.e. edges lying on no undirected cycle. An edge is
    a bridge exactly when its biconnected component is a singleton
    (parallel edges form a 2-cycle, so neither copy is a bridge).
    Assumes connectivity, like {!biconnected_components}. *)

val serial_blocks :
  ?order:Graph.node array ->
  Graph.t ->
  (Graph.node * Graph.node * Graph.edge list) list
(** For a two-terminal DAG [g] with source [x] and sink [y]:
    the biconnected blocks ordered along the source-to-sink chain, each
    as [(block_source, block_sink, edges)], such that [g] is the serial
    composition of the blocks: the first block's source is [x], each
    block's sink is the next block's source, and the last sink is [y].
    [order], when given, must be [g]'s {!Topo.order}.
    @raise Invalid_argument if [g] is not two-terminal or a block is not
    itself two-terminal between consecutive cut vertices (cannot happen
    for DAGs: every biconnected block of a two-terminal DAG is itself
    two-terminal). *)
