(** Topology repair: rewrite a non-CS4 DAG into a CS4 one.

    The paper's conclusion asks "whether one can efficiently translate
    arbitrary DAGs to equivalent CS4 topologies by adding a small
    number of nodes and edges", and sketches the butterfly example:
    replace the crossing channel b->c by routing b's traffic through d
    over a new channel d->c. This module implements that idea as an
    iterative heuristic:

    - while the graph is not CS4, take a witness cycle with two or more
      sources from the first block {!Fstream_ladder.Cs4.classify}
      rejects ({!Fstream_ladder.Cs4.block_witnesses}: that block's
      cycles only);
    - pick a single-edge run [s -> t] of the witness and reroute it
      through the sink [t'] of an adjacent run: delete [s -> t], ensure
      a relay channel [t' -> t] (or [t -> t'] if the opposite direction
      is forced by acyclicity) exists;
    - repeat, up to a bound.

    A rewrite never removes connectivity: traffic from [s] to [t] now
    rides the existing [s ~> t'] run plus the relay channel, so the
    *application* is preserved provided the node at [t'] forwards the
    rerouted stream (the runtime example [examples/butterfly_repair.ml]
    shows the forwarding kernel). The heuristic is not complete — the
    paper leaves existence of a general efficient translation open —
    and reports failure honestly. *)

open Fstream_graph

type reroute = {
  deleted : Graph.node * Graph.node;  (** the removed channel (s, t) *)
  via : Graph.node;  (** the relay vertex t' *)
  added : (Graph.node * Graph.node) option;
      (** relay channel created, if it did not already exist *)
}

type t = {
  graph : Graph.t;  (** the repaired, CS4 topology *)
  reroutes : reroute list;  (** in application order *)
  added_edges : int;
  deleted_edges : int;
}

val repair : ?max_cycles:int -> Graph.t -> (t, string) result
(** [repair g] returns a CS4 topology when the heuristic converges
    (identity repair if [g] is already CS4). A newly created relay
    channel gets the capacity of the channel it replaces, and the
    rewrite loop stops after [4 * num_edges] rounds. [max_cycles]
    bounds each round's search for a witness cycle in the rejected
    block ({!Fstream_ladder.Cs4.block_witnesses}, whose default applies
    without it); a round that exhausts it ends the repair in
    [Error]. *)

val preserves_reachability : Graph.t -> t -> bool
(** Every ordered node pair connected by a directed path in the
    original graph is still connected in the repaired one — the
    property that makes rerouted forwarding possible. *)

val pp_reroute : Format.formatter -> reroute -> unit
(** One line: [reroute s->t via t' (added a->b | relay channel existed)]. *)

val pp_summary : original:Graph.t -> Format.formatter -> t -> unit
(** The CLI summary shared by [streamcheck repair] and
    [streamcheck lint --fix]: deleted/added counts, one line per
    reroute, and whether reachability from [original] is preserved. *)
