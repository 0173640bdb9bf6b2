(** Typed per-channel dummy-threshold tables.

    The runtime wrappers used to take a positional [int option array],
    which made it possible to compute a table for one graph and silently
    apply it to another — the thresholds would line up with the wrong
    edges and the soundness guarantee would evaporate without any error.
    A [Thresholds.t] closes that hole: it is abstract, indexed by edge
    id, and carries a structural fingerprint of the graph it was
    computed for. The engines check the fingerprint at the start of
    every run and refuse mismatched tables.

    Produce tables with {!Compiler.send_thresholds},
    {!Compiler.propagation_thresholds} or {!Compiler.sdf_thresholds};
    {!of_array} is the escape hatch for hand-built tables (tests,
    experiments).

    The same hole would reopen with kernel fusion — a fused topology
    renumbers edges, so an original-graph table applied to the fused
    graph (or vice versa) would be positionally wrong. It stays closed
    for free: tables for a fused run are built against
    [Fusion.graph] and the derived intervals, so their fingerprint
    binds them to the fused topology and the engines reject any
    cross-application (checked in [test/test_fusion.ml]). *)

open Fstream_graph

type t

val of_array : Graph.t -> int option array -> t
(** Bind a raw table to the graph it is meant for. [None] means the
    channel never originates dummies; [Some k] means a dummy is due
    once the channel has gone [k] sequence numbers without a message.
    @raise Invalid_argument if the array length is not [num_edges], or
    some threshold is [< 1]. *)

val get : t -> int -> int option
(** [get t edge_id]. @raise Invalid_argument if out of range. *)

val to_array : t -> int option array
(** A fresh copy of the raw table (the runtime boundary). *)

val compatible : t -> Graph.t -> bool
(** Whether the table was computed for (a graph structurally identical
    to) this graph. *)

val check : t -> Graph.t -> unit
(** @raise Invalid_argument when not {!compatible} — the error the
    engines raise on a table/graph mix-up. *)

val graph_fingerprint : Graph.t -> int
(** Structural fingerprint over node count and every edge's
    [(id, src, dst, cap)] — capacities included, since thresholds are
    functions of buffer sizes. *)

val epoch : t -> int
(** Reconfiguration epoch tag, [0] for a freshly built table. Purely
    observational — the serving layer stamps each reconfigured
    tenant's table with its epoch so reports and tests can tell which
    generation of the topology a session ran under; no engine
    behaviour depends on it. *)

val with_epoch : t -> int -> t
(** The same table tagged with a different epoch (shares the
    underlying array). *)
