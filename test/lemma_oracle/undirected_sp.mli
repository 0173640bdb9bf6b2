(** Undirected series-parallel structure and K4 subdivisions.

    Lemma V.1 bounds CS4 DAGs by a purely undirected property: a CS4
    DAG contains no subgraph homeomorphic to K4. By Duffin's theorem, a
    (multi)graph has no K4 minor iff every biconnected component is
    undirected series-parallel, i.e. reduces to a single edge under
    repeated undirected series contractions (degree-2 vertices) and
    parallel merges; and because K4 is 3-regular, having a K4 minor and
    containing a K4 subdivision coincide. This module implements that
    reduction, giving a linear-time K4-subdivision test used by the
    Lemma V.1 / Lemma V.6 property tests. *)

open Fstream_graph

val has_k4_subdivision : Graph.t -> bool
(** Some biconnected component of the underlying undirected multigraph
    is not series-parallel — equivalently, the graph contains a
    subgraph homeomorphic to K4. *)

val is_undirected_sp : Graph.t -> bool
(** [not (has_k4_subdivision g)]. *)
