(** Graphviz export of streaming topologies.

    Produces [dot] source for a directed multigraph with optional
    per-node and per-edge decorations — the CLI uses it to render
    classifications and interval tables, and the documentation figures
    were generated with it. Output is deterministic (nodes and edges in
    id order) so it is also convenient for golden tests. *)

val render :
  ?graph_name:string ->
  ?node_label:(Graph.node -> string) ->
  ?node_class:(Graph.node -> string option) ->
  ?edge_label:(Graph.edge -> string) ->
  ?edge_class:(Graph.edge -> string option) ->
  Graph.t ->
  string
(** [render g] is a complete [digraph] document. [node_label] defaults
    to the node id; [edge_label] defaults to the buffer capacity.
    [node_class]/[edge_class] map to Graphviz [class] attributes
    (useful with SVG styling); [None] omits the attribute. *)
