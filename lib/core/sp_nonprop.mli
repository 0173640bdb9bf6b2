(** O(|G|^2) Non-Propagation intervals on SP-DAGs (§IV.B).

    Post-order over the decomposition tree. Serial composition creates
    no cycles; a parallel composition [Pc(H1, H2)] creates, for each
    edge [e] of [H1], a tightest new cycle pairing a longest (hop-count)
    path through [e] in [H1] with a shortest (buffer) path through
    [H2], contributing [L(H2) / h(H1, e)]. The through-hop values
    [h(H, e)] are recomputed per parallel node by a subtree walk, which
    is the paper's O(|G|^2) budget. *)

open Fstream_graph
open Fstream_spdag

val iter_edges_through_hops : Sp_tree.t -> (Graph.edge -> int -> unit) -> unit
(** Visit every leaf edge of the tree together with [h(H, e)] — the
    longest hop-count of a source-to-sink path of the whole tree passing
    through that edge. Linear in the tree; also used by the SP-ladder
    Non-Propagation algorithm. *)

val update : Interval.t array -> Sp_tree.t -> unit
(** Fold the Non-Propagation constraints of every cycle internal to the
    tree into the table. *)

val update_relay : Interval.t array -> Sp_tree.t -> unit
(** Relay-Propagation variant: the same sweep without the hop-count
    division (see {!General.relay_propagation}). *)

val intervals : Graph.t -> Sp_tree.t -> Interval.t array
