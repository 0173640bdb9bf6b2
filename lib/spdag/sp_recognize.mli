(** Recognition of two-terminal series-parallel DAGs.

    Implements the reduction characterization behind the linear-time
    algorithm of Valdes, Tarjan and Lawler [16]: repeatedly merge
    parallel edges (same endpoints) and series vertices (inner vertices
    of in- and out-degree one). A connected two-terminal DAG is
    series-parallel iff this terminates with a single edge from source
    to sink. The merges are recorded as a {!Sp_tree.t}, whose leaves are
    the original {!Fstream_graph.Graph.edge} values, so dummy intervals
    computed on the tree map directly back to channel ids.

    Worklist-driven; each merge is O(1) amortized, so recognition runs
    in O(|G|) — the cost step 1 of §IV.A budgets. All reduction state is
    block-local: {!reduce} renumbers the endpoints of the edges it is
    given to dense ids [0 .. k-1] and sizes every table to those [k]
    nodes, never to the whole graph. A caller that reduces each
    biconnected block of a graph in turn ({!Fstream_ladder.Cs4}) thus
    pays for each block's size once — O(|G|) over all blocks, where a
    graph-sized table per call would cost O(|V|) for each of a
    pipeline's |V|-1 one-edge blocks.

    The stalled reduction is also exposed ({!reduce}): when the input is
    not series-parallel the surviving super-edges form its "core", which
    the SP-ladder recognizer ({!Fstream_ladder.Ladder}) pattern-matches
    against the skeleton of Fig. 6. *)

type super_edge = {
  s_src : Fstream_graph.Graph.node;
  s_dst : Fstream_graph.Graph.node;
  s_tree : Sp_tree.t;
      (** decomposition of the series-parallel subgraph this super-edge
          replaces; its terminals are [s_src] and [s_dst] *)
}

type failure =
  | Not_two_terminal
      (** cyclic, disconnected, multiple sources/sinks, or no edges *)
  | Irreducible of { remaining_edges : int }
      (** two-terminal but not series-parallel: the reduction stalled
          with this many super-edges left *)

val reduce :
  protect:(Fstream_graph.Graph.node -> bool) ->
  Fstream_graph.Graph.edge list ->
  super_edge list
(** Run the series/parallel reduction to a fixpoint over the given edge
    multiset. Nodes for which [protect] holds are never series-merged
    (use it to protect the intended terminals). Node ids may be sparse:
    the state is sized to the distinct endpoints of [edges]. The
    surviving super-edges come back in the same order for the same
    input. *)

val recognize : Fstream_graph.Graph.t -> (Sp_tree.t, failure) result
(** Whole-graph recognition: checks the connected two-terminal DAG
    property, then reduces. *)

val is_sp : Fstream_graph.Graph.t -> bool
