(** Topology edit scripts.

    A reconfiguration is a list of {!op}s applied in order; each op
    names edges and nodes by the ids of the graph {e as it stands at
    that point in the script} (ids are dense, so removals renumber —
    the returned maps account for it). The result is a {!delta}: the
    edited graph plus the provenance every incremental consumer needs —
    which new edge a surviving base edge became ([edge_map]), which new
    node a surviving base node became ([node_map]), and which new edges
    were added or resized ([dirty]) and therefore cannot inherit any
    value computed for the base graph.

    Id stability is deliberate where it is cheap, because the
    incremental recompiler's structural sharing keys on edge records:
    {!Resize} keeps the edge in place, {!Add_edge} appends, and
    {!Add_stage} splits an edge [u -> w] by replacing it {e in place}
    with [u -> v] and appending [v -> w] — so no surviving edge or node
    is ever renumbered by these three. Only the removals shift ids. *)

type op =
  | Resize of { edge : int; cap : int }
      (** set the capacity of [edge] to [cap] *)
  | Add_edge of { src : int; dst : int; cap : int }
      (** append a fresh edge (takes the next dense id) *)
  | Remove_edge of { edge : int }
      (** delete [edge]; every higher edge id shifts down by one *)
  | Add_stage of { edge : int; cap_in : int; cap_out : int }
      (** split [edge = u -> w]: a fresh node [v] (the next dense node
          id) with [u -> v] (capacity [cap_in]) replacing [edge] in
          place and [v -> w] (capacity [cap_out]) appended *)
  | Remove_stage of { node : int; cap : int option }
      (** splice out a node with exactly one in-edge [u -> node] and
          one out-edge [node -> w]: both edges are removed and a single
          dirty edge [u -> w] takes the in-edge's position, with
          capacity [cap] (default: the min of the two). Higher node
          ids shift down by one. *)

type delta = {
  base : Graph.t;  (** the graph the script was applied to *)
  graph : Graph.t;  (** the edited graph *)
  edge_map : int option array;
      (** indexed by base edge id: the id the edge survives as in
          [graph], or [None] if an op removed or replaced it. A
          surviving edge has the same endpoints (up to node
          renumbering); its capacity changed iff its new id is
          [dirty]. *)
  node_map : int option array;
      (** indexed by base node id: its id in [graph], or [None] *)
  origin : int option array;
      (** indexed by [graph] edge id: the base edge it survives from
          (the inverse of [edge_map]), or [None] for an edge the script
          added or put in place of a removed one *)
  dirty : bool array;
      (** indexed by [graph] edge id: the edge was added or resized by
          the script (so values computed for the base graph must not be
          spliced onto it) *)
}

val apply : Graph.t -> op list -> (delta, string) result
(** Apply the ops in order. [Error] describes the first invalid op
    (id out of range, capacity < 1, self-loop, or a {!Remove_stage}
    target whose degree is not 1/1); the graph is never partially
    edited — any error discards the whole script. *)

(** {2 What an edit lets a consumer reuse}

    An incremental consumer computes its values per block of a
    partition of the graph's edges (the CS4 serial blocks of the exact
    route, the cyclic biconnected components of the LP) and, after an
    edit, asks of each block of the edited graph where it came from.
    This is the one rule both routes splice by. *)

type ancestry = {
  ancestor : int;
      (** index in [base] of the block the most of this block's edges
          descend from; a tie goes to the smallest index *)
  unedited : bool;
      (** the block is an unedited copy of [ancestor]: none of its edges
          is [dirty], every one survives from the base graph, and their
          origins are exactly [ancestor]'s edges. Values that depend
          only on a block's own edges can then be copied over. *)
}

val ancestry : delta -> base:int list list -> int list -> ancestry option
(** [ancestry d ~base] indexes [base], pairwise disjoint blocks of
    [d.base]'s edge ids, once; the function it returns takes a block of
    [d.graph] (its edge ids) and returns its ancestry, or [None] when
    none of its edges descends from an edge of [base]. *)

val parse_ops : string -> (op list, string) result
(** Parse a [;]-separated op list, e.g.
    ["resize e3 5; add-stage e0 2 2; remove-edge e7"]. Each op is
    whitespace-separated tokens; edge and node ids may be written bare
    or with an [e]/[n] prefix. Accepted forms: [resize E CAP],
    [add-edge SRC DST CAP], [remove-edge E], [add-stage E CIN COUT],
    [remove-stage N [CAP]]. *)

val pp_op : Format.formatter -> op -> unit
(** Prints in the concrete syntax {!parse_ops} accepts. *)
