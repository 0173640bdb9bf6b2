(** Weighted shortest and longest paths on DAGs.

    Edge weights are supplied by a function so the same routines serve
    buffer-length distances (the paper's [L]) and hop counts (the
    paper's [h]). All routines require acyclicity and run in
    [O(V + E)] after one topological sort. *)

open Fstream_graph

val shortest_from :
  Graph.t -> Graph.node -> weight:(Graph.edge -> int) -> int option array
(** [shortest_from g v ~weight] gives, per node, the minimum total
    weight of a directed path from [v], or [None] if unreachable.
    [Some 0] at [v] itself. *)

val longest_from :
  Graph.t -> Graph.node -> weight:(Graph.edge -> int) -> int option array

val shortest_to :
  Graph.t -> Graph.node -> weight:(Graph.edge -> int) -> int option array
(** Per node, minimum weight of a directed path to [v]. *)

val longest_to :
  Graph.t -> Graph.node -> weight:(Graph.edge -> int) -> int option array

val shortest_caps : Graph.t -> src:Graph.node -> dst:Graph.node -> int option
(** The paper's [L]: minimum total buffer capacity over directed
    [src]-to-[dst] paths. *)

val longest_hops : Graph.t -> src:Graph.node -> dst:Graph.node -> int option
(** The paper's [h]: maximum hop count over directed [src]-to-[dst]
    paths. *)

val longest_hops_through :
  Graph.t -> src:Graph.node -> dst:Graph.node -> int option array
(** The paper's [h(H, e)], indexed by edge id: maximum hop count over
    directed [src]-to-[dst] paths through each edge, or [None] when no
    such path exists. *)
