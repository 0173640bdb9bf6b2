(** Topology edit scripts.

    A reconfiguration is a list of {!op}s applied in order; each op
    names edges and nodes by the ids of the graph {e as it stands at
    that point in the script} (ids are dense, so removals renumber).
    The result is a {!delta}: the edited graph, which of its edges the
    script added or resized ([dirty]), and whether the script only
    resized ([resize_only]). A resize-only script keeps every edge and
    node id and every endpoint, so the edited graph has the base
    graph's topology; an incremental consumer may reuse what it
    computed for the base graph on the edges that are not dirty. Any
    other op changes the topology, and the consumer starts cold.

    {!Resize} keeps the edge in place, {!Add_edge} appends, and
    {!Add_stage} splits an edge [u -> w] by replacing it {e in place}
    with [u -> v] and appending [v -> w]; only the removals shift ids. *)

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
  dirty : bool array;
      (** indexed by [graph] edge id: the edge was added or resized by
          the script (so values computed for the base graph must not be
          spliced onto it) *)
  resize_only : bool;
      (** every op is a {!Resize}: [graph] has [base]'s nodes and edges,
          with the same ids and endpoints; only the [dirty] edges'
          capacities differ *)
}

val apply : Graph.t -> op list -> (delta, string) result
(** Apply the ops in order. [Error] describes the first invalid op
    (id out of range, capacity < 1, self-loop, or a {!Remove_stage}
    target whose degree is not 1/1), or an edited graph whose
    capacities sum past {!Graph.max_total_cap}; the graph is never
    partially edited — any error discards the whole script. *)

val parse_ops : string -> (op list, string) result
(** Parse a [;]-separated op list, e.g.
    ["resize e3 5; add-stage e0 2 2; remove-edge e7"]. Each op is
    whitespace-separated tokens; edge and node ids may be written bare
    or with an [e]/[n] prefix. Accepted forms: [resize E CAP],
    [add-edge SRC DST CAP], [remove-edge E], [add-stage E CIN COUT],
    [remove-stage N [CAP]]. *)

val pp_op : Format.formatter -> op -> unit
(** Prints in the concrete syntax {!parse_ops} accepts. *)
