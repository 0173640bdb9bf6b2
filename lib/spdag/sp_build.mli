(** Declarative construction of series-parallel graphs.

    A {!spec} mirrors the recursive definition of §III: an edge with a
    buffer capacity, a pipeline of components ([Series]), or a split-join
    of components ([Parallel]). [to_graph] materializes the spec as a
    {!Fstream_graph.Graph.t} with dense node and edge ids — the inverse
    of {!Sp_recognize.recognize}, used by generators, examples and
    tests. *)

type spec =
  | Edge of int  (** a channel with the given buffer capacity *)
  | Series of spec list  (** non-empty; pipeline of components *)
  | Parallel of spec list  (** non-empty; split-join of components *)

val to_graph : spec -> Fstream_graph.Graph.t
(** Nodes are numbered so that node [0] is the source and the highest id
    is the sink.
    @raise Invalid_argument on an empty [Series] or [Parallel], or a
    capacity < 1. *)

val num_edges : spec -> int
val num_inner_nodes : spec -> int
