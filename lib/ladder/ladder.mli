(** SP-ladders: recognition and decomposition into constituent SP-DAGs.

    An SP-ladder (§V) is a two-path outer cycle from source [X] to sink
    [Y], decorated with non-crossing chord graphs that are themselves
    SP-DAGs, at least one of which is a cross-link joining the interiors
    of the two paths. §VI decomposes a ladder into the skeleton of
    Fig. 6: rail segments [S_0..S_k] (left) and [D_0..D_k] (right) and
    cross-links [K_1..K_k], every constituent an SP-DAG.

    Recognition works on the stalled series-parallel reduction of the
    block ({!Fstream_spdag.Sp_recognize.reduce}): contracting every
    series-parallel substructure leaves exactly the Fig. 6 skeleton —
    rail vertices are cross-link attachment points and survive with
    degree >= 3, everything else folds into a rail segment or chord.
    A single ordered walk down both rails then validates the skeleton
    and orders the rungs; non-crossing makes the next rung always join
    the current rail frontier, so the walk is linear in the skeleton.

    The paper's indexing allows [u_i = u_(i+1)] (cross-links sharing an
    endpoint, making segment [S_i] trivial); here rail vertices are
    listed once and each may carry several consecutive rungs, with
    trivial segments reconstructed by the interval algorithms. *)

open Fstream_graph
open Fstream_spdag

type rung = {
  left_end : Graph.node;  (** skeleton vertex on the left rail *)
  right_end : Graph.node;
  cross : Sp_tree.t;  (** the cross-link SP-DAG [K_i] *)
  left_to_right : bool;  (** [true] if directed left rail -> right rail *)
}

type t = private {
  source : Graph.node;  (** X *)
  sink : Graph.node;  (** Y *)
  left_nodes : Graph.node array;  (** u-vertices, rail order, distinct *)
  right_nodes : Graph.node array;  (** v-vertices, rail order, distinct *)
  left_segments : Sp_tree.t array;
      (** [|left_nodes| + 1] segments: X->u_1, u_1->u_2, ..., u_p->Y *)
  right_segments : Sp_tree.t array;
  rungs : rung array;  (** >= 1, in ladder (top-to-bottom) order *)
}

val of_core :
  source:Graph.node ->
  sink:Graph.node ->
  Sp_recognize.super_edge list ->
  (t, string) result
(** Pattern-match a stalled reduction against the ladder skeleton. The
    error string names the violated structural condition (for
    diagnostics; any error means "not an SP-ladder"). *)

val recognize_block :
  source:Graph.node ->
  sink:Graph.node ->
  Graph.edge list ->
  (t, string) result
(** Reduce the block, then {!of_core}. Fails with ["series-parallel"]
    if the block is SP rather than a ladder. *)

val edges : t -> Graph.edge list
(** All original edges across every constituent, in no particular
    order. *)

val num_rungs : t -> int

val core_edges : t -> int
(** The super-edges its stalled series-parallel reduction leaves: the
    [|left_nodes| + 1] and [|right_nodes| + 1] rail segments and the
    rungs. The rails keep two or more super-edges at both terminals, so
    the reduction of a graph that holds the ladder as one block stalls
    with these still there. *)

val refresh : Graph.t -> t -> t
(** Substitute the graph's current edge records (same ids, new
    capacities) into every constituent via {!Sp_tree.refresh}; the
    ladder skeleton — rails, rungs, attachment points — is unchanged.
    Only meaningful after an id-stable, structure-preserving edit. *)

val constituents : t -> (string * Sp_tree.t) list
(** Every constituent SP-DAG with a label ("S0", "D2", "K1", ...), for
    reporting and tests. *)

val pp : Format.formatter -> t -> unit
