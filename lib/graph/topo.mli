(** Topological structure of directed multigraphs: acyclicity, orderings,
    and reachability. *)

val order : Graph.t -> Graph.node array option
(** A topological order of the nodes, or [None] if the graph has a
    directed cycle. Kahn's algorithm over a min-heap of the ready nodes
    (lower ids first); three int arrays are its only allocation. A
    compile sorts once and passes the order down. *)

val is_dag : Graph.t -> bool

val order_exn : Graph.t -> Graph.node array
(** {!order}, for a graph known to be acyclic.
    @raise Invalid_argument if the graph is cyclic. *)

val rank : Graph.t -> int array
(** [rank g] maps each node to its position in [order_exn g].
    @raise Invalid_argument if the graph is cyclic. *)

val search :
  Graph.t -> Graph.node list -> (Graph.node -> Graph.node list) -> bool array
(** [search g roots next] flags every node reached from [roots] by
    repeatedly following [next], the roots included: one depth-first
    walk, one [bool array]. *)

val successors : Graph.t -> Graph.node -> Graph.node list
(** The heads of a node's out-edges, one per edge: {!search}'s [next]
    along the edges. *)

val predecessors : Graph.t -> Graph.node -> Graph.node list
(** The tails of a node's in-edges: {!search}'s [next] against them. *)

val neighbours : Graph.t -> Graph.node -> Graph.node list
(** Both: {!search}'s [next] in the undirected multigraph. *)

val reachable : Graph.t -> Graph.node -> bool array
(** [reachable g v] flags every node reachable from [v] by directed
    paths, including [v] itself. *)

val co_reachable : Graph.t -> Graph.node -> bool array
(** Nodes from which [v] is reachable, including [v] itself. *)

val is_two_terminal : Graph.t -> (Graph.node * Graph.node) option
(** [Some (source, sink)] if the graph is a DAG with exactly one source
    and one sink and every node lies on some source-to-sink path;
    [None] otherwise. *)

val dag_terminals : Graph.t -> (Graph.node * Graph.node) option
(** {!is_two_terminal} for a graph known to be a DAG, where every node
    lies on a path from some source to some sink: one source and one
    sink suffice, and the graph is then connected. A degree count. *)

val connected : Graph.t -> bool
(** Whether the underlying undirected multigraph is connected. *)
