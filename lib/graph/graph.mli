(** Directed multigraphs with buffered channels.

    This is the substrate shared by every other library in the
    reproduction: a streaming application is a directed acyclic multigraph
    whose nodes are compute kernels and whose edges are one-way FIFO
    channels with a finite buffer capacity (the paper's edge "length").

    Values of type {!t} are immutable once built; all analyses in
    {!Topo}, {!Articulation} and {!Cycles} treat them read-only.
    Parallel edges (same endpoints) and any number of sources/sinks are
    allowed at this layer; the SP/CS4 layers impose their own
    restrictions. *)

type node = int
(** Nodes are dense identifiers [0 .. num_nodes - 1]. *)

type edge = private {
  id : int;  (** dense identifier [0 .. num_edges - 1] *)
  src : node;
  dst : node;
  cap : int;  (** channel buffer capacity, in messages; >= 1 *)
}

type t

val max_total_cap : int
(** [2^30], the largest sum of a graph's capacities. Every quantity the
    interval algorithms build is a sum of capacities, or a count of
    edges, or a ratio of the two, so numerators and denominators are at
    most this bound and an interval comparison, which multiplies one
    interval's numerator by the other's denominator, stays below
    [2^60]. The runtime's channel rings, sized by the same sum, cannot
    wrap either. *)

val make : nodes:int -> (node * node * int) list -> t
(** [make ~nodes spec] builds a graph with [nodes] nodes and one edge per
    [(src, dst, cap)] triple, with edge ids assigned in list order.
    @raise Invalid_argument if an endpoint is out of range, [cap < 1],
    the capacities sum past {!max_total_cap}, [nodes < 1], or an edge
    is a self-loop. *)

val num_nodes : t -> int
val num_edges : t -> int
val size : t -> int
(** [size g] is [num_nodes g + num_edges g], the paper's [|G|]. *)

val edge : t -> int -> edge
(** [edge g id] is the edge with identifier [id].
    @raise Invalid_argument if [id] is out of range. *)

val edges : t -> edge list
(** All edges in increasing id order. *)

val out_edges : t -> node -> edge list
val in_edges : t -> node -> edge list

val out_edge_ids : t -> node -> int array
val in_edge_ids : t -> node -> int array
(** Flat adjacency: the ids of a node's out/in edges in increasing
    order, precomputed at {!make}. The returned array is the graph's
    own (graphs are immutable) — callers must not mutate it. This is
    the zero-allocation view the runtime hot paths iterate. *)

val out_degree : t -> node -> int
val in_degree : t -> node -> int
(** O(1): degrees are precomputed at {!make}. *)

val incident_edges : t -> node -> edge list
(** Edges touching a node in either direction (undirected view), in
    increasing id order. Precomputed at {!make}: the returned list is
    the graph's own and costs no allocation. *)

val sources : t -> node list
(** Nodes with in-degree 0, ascending. *)

val sinks : t -> node list
(** Nodes with out-degree 0, ascending. *)

val other_endpoint : edge -> node -> node
(** [other_endpoint e v] is the endpoint of [e] that is not [v].
    @raise Invalid_argument if [v] is not an endpoint of [e]. *)

val parallel_edges : t -> edge -> edge list
(** Edges other than [e] with the same [src] and [dst] as [e]. *)

val reverse : t -> t
(** Same nodes and edge ids, every edge flipped. *)

val map_caps : t -> (edge -> int) -> t
(** Rebuild the graph with per-edge capacities given by the function. *)

val iter_nodes : t -> (node -> unit) -> unit
val fold_edges : t -> init:'a -> f:('a -> edge -> 'a) -> 'a

val pp : Format.formatter -> t -> unit
(** Human-readable dump, one edge per line, for debugging and the CLI. *)
