(** Undirected simple cycles of a DAG and their directed-run structure.

    The deadlock theory of §II.B is phrased over the undirected simple
    cycles of the application DAG: every potential deadlock corresponds
    to such a cycle, decomposed into maximal directed paths ("runs")
    joined at cycle sources and sinks. This module enumerates all simple
    cycles of the undirected multigraph and computes the run
    decomposition used by the general-DAG baseline and by the
    brute-force CS4 property check.

    Cost. Every simple cycle lies inside one biconnected block, so the
    search from each start vertex stays inside the block of its first
    edge and never follows a bridge. It is exponential only within one
    block (the number of simple paths there — exactly the cost the
    paper's SP/CS4 algorithms avoid), and linear in the rest of the
    graph: O(|G|) set-up (one biconnected-components pass) and O(|G|)
    on a cycle-free graph or on the bridges between blocks. *)

type oriented = {
  edge : Graph.edge;
  fwd : bool;  (** [true] when traversal follows the edge's direction *)
}

type t = oriented list
(** A simple cycle as a traversal: consecutive oriented edges share an
    endpoint, and the last returns to the first vertex. Length >= 2
    (a pair of parallel edges is the shortest cycle). *)

type run = {
  run_source : Graph.node;
  run_sink : Graph.node;
  run_edges : Graph.edge list;  (** in directed order, source to sink *)
}
(** A maximal directed path along a cycle. *)

exception Budget_exceeded of int
(** Raised by {!enumerate}, {!fold} and {!count} once more than the
    given budget of distinct simple cycles has been met; carries the
    budget. {!search} reports it instead. *)

val enumerate : ?max_cycles:int -> Graph.t -> t list
(** All undirected simple cycles, each reported once. A cycle is
    listed from its smallest vertex, in the orientation whose first
    edge has the smaller id; cycles come in the order of a DFS from
    each start vertex in increasing order, edges tried in increasing
    id. [max_cycles] bounds the enumeration as a safety valve (default
    10_000_000).
    @raise Budget_exceeded when the graph has more cycles than that. *)

val fold :
  ?max_cycles:int -> Graph.t -> init:'a -> f:('a -> t -> 'a) -> 'a
(** Fold [f] over the cycles in {!enumerate} order as they are found,
    without building the list: memory stays that of one cycle however
    many the graph has.
    @raise Budget_exceeded as {!enumerate}. *)

val count : ?max_cycles:int -> Graph.t -> int
(** [List.length (enumerate g)], without building the list. *)

val search :
  ?max_cycles:int ->
  ?within:int list ->
  Graph.t ->
  limit:int ->
  (t -> bool) ->
  t list * bool
(** [search g ~limit p] is the first [limit] cycles, in {!enumerate}
    order, that satisfy [p]; the traversal stops at the [limit]-th.

    [within] restricts the search to the cycles all of whose edges have
    their ids in that list, listed in the order {!enumerate} gives
    them. Given the edges of one biconnected block, those are exactly
    the block's cycles, and the traversal never leaves the block: the
    search costs O(|G|) set-up plus the paths it explores inside the
    block, whatever the rest of the graph holds.

    The budget counts the cycles examined, up to and including the
    [limit]-th match, so a match among the first [max_cycles] cycles
    is found even when the graph has more. The flag is [true] when
    more than [max_cycles] were examined before [limit] matches: the
    list then holds the matches among the first [max_cycles] cycles.
    Never raises {!Budget_exceeded}. *)

val vertices : t -> Graph.node list
(** Vertex sequence [v0; v1; ...] with [v_i] the tail of the i-th
    oriented edge in traversal order (no repeated final vertex). *)

val runs : t -> run array
(** The maximal directed runs in cyclic traversal order. Always an even
    count >= 2 for cycles of a DAG. *)

val opposite_run : t -> int array
(** [opposite_run c] pairs each run of [runs c] with the index of the
    run on the other side of its source: the two runs leave that cycle
    source in opposite traversal directions. For a two-run cycle this is
    [|1; 0|]. *)

val cycle_sources : t -> Graph.node list
val cycle_sinks : t -> Graph.node list

val is_cs4_cycle : t -> bool
(** Exactly one source and one sink (equivalently, exactly two runs). *)

val run_caps : run -> int
(** Total buffer capacity along a run (the paper's [L] on a cycle). *)

val run_hops : run -> int
(** Number of edges of a run (the paper's [h] on a cycle). *)
