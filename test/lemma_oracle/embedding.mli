(** Constructive planarity: combinatorial embeddings of CS4 DAGs.

    Corollary V.2 states that every CS4 graph is planar. This module
    proves it constructively for any given CS4 graph: from the
    {!Cs4.t} decomposition it assembles a rotation system — a cyclic,
    counter-clockwise order of incident half-edges around every vertex —
    by stacking parallel components, nesting series-parallel lenses,
    and laying ladder rails out as the top and bottom of a band with
    the (non-crossing) cross-links as verticals. Tracing the orbits of
    the face permutation and checking Euler's formula
    [V - E + F = 2] then certifies genus zero, i.e. planarity, for
    that concrete graph.

    Half-edge encoding: edge [e] contributes half-edge [2 * e.id]
    originating at [e.src] and [2 * e.id + 1] originating at
    [e.dst]. *)

open Fstream_graph
open Fstream_ladder

type t = int list array
(** Per vertex, the CCW cyclic order of half-edges originating there. *)

val of_cs4 : Graph.t -> Cs4.t -> t
(** Rotation system induced by a CS4 decomposition. *)

val of_graph : Graph.t -> (t, string) result
(** Classify, then embed. Errors on non-CS4 graphs (which may still be
    planar — the butterfly is — but have no decomposition to drive the
    construction). *)

val faces : Graph.t -> t -> int
(** Number of orbits of the face permutation. *)

val euler_ok : Graph.t -> t -> bool
(** [faces g rot = 2 - V + E] — the rotation system is a planar (genus
    zero) embedding. Requires a connected graph. *)

val check_wellformed : Graph.t -> t -> bool
(** Every half-edge appears exactly once, at the vertex it originates
    from (test helper). *)
