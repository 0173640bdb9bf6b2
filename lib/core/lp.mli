(** Polynomial LP interval backend for general DAGs.

    The paper's threshold construction is exact but exponential outside
    CS4: {!General} folds over every undirected simple cycle. Following
    the LP line of Sirdey & Aubry (PAPERS.md), this module instead
    solves one small linear program per biconnected component and reads
    a {e sufficient, conservative} safe-interval table off the optimum
    — for {e any} connected DAG (no two-terminal requirement). The
    programs are difference-constraint programs, so every entry point
    is an integer graph algorithm, strongly polynomial: no simplex, no
    rational arithmetic, no budget.

    {2 The program}

    Per cyclic biconnected component [B] (bridges lie on no undirected
    cycle and keep interval [Inf]): a slack [x_e >= 0] per [B]-edge,
    the dummy budget [t_e - 1] the edge may accumulate; a demand
    [D_v >= 0] per [B]-node; {e chain rows} [x_e <= D_v - D_w] for
    every [B]-edge [e = (v, w)], so [D_v] bounds [sum x_e] along every
    directed path leaving [v]; {e branch rows}
    [D_s <= c_s - 1], [c_s = min_cap_out(s)], at every {e branch} node
    (two or more outgoing [B]-edges: exactly the nodes that can be the
    source of an undirected cycle). Objective: maximize [sum x_e].

    {b The D-form.} Each [x_e] sits in its own chain row only, with
    objective weight 1, so at an optimum [x_e = D_v - D_w]: maximize
    [sum_v (out_v - in_v) * D_v] over integer [D >= 0], non-increasing
    along [B]-edges, with [D_s <= c_s - 1] at branch nodes. Every node
    descends from a source of [B], a branch node, so [D] is bounded.
    The box row [sum x_e <= sum cap_e] of the first encoding is
    redundant: only a node with [out_v > in_v] weighs positively, such
    a node has two or more out-edges, so [sum x_e] is at most the sum
    of [cap_e - 1] over branch out-edges.

    {b The canonical optimum.} Level [k >= 1] of [D],
    [{v : D_v >= k}], is closed under ancestors, weighs the number of
    [B]-edges leaving it, and avoids every descendant of a branch node
    capped below [k]; the objective is the sum of the levels' weights.
    {!resolve} takes the {e largest} maximum-weight closure per
    distinct branch cap, one max-flow each (Picard). These sets nest;
    their sum is the componentwise-greatest optimal [D], and an edge's
    interval is [1 + D_v - D_w]. The optimum is unique, so a
    component's table depends only on its own program: not on node
    numbering, component order or any earlier solve.

    {b Safety.} Every run [R] of every undirected simple cycle starts
    at a cycle source [s] (a branch node of the run's component) and is
    a directed path, so
    [sum_R (t_e - 1) <= sum_R x_e <= D_s <= c_s - 1 <= L(opp R) - 1] —
    the run-sum discipline rule FS303 checks: conservative with respect
    to the exact backend, never unsafe.

    {b A supplied table.} With the thresholds fixed, the least feasible
    [D] is the {e demand}: the longest path of [sum (t_e - 1)] over
    finite-threshold [B]-edges leaving [v], one pass in topological
    order. {!audit} and {!min_buffers} compare it with the caps. *)

open Fstream_graph

type resolve_stats = {
  rcomponents : int;  (** cyclic components, each solved *)
  rrows : int;  (** chain rows plus branch rows over every component *)
  rpivots : int;  (** augmenting paths of the solves' max-flows *)
}

val resolve : Graph.t -> Interval.t array * resolve_stats
(** The backend entry point: a safe-interval table for any connected
    DAG, the canonical optimum per cyclic biconnected component,
    bridges [Inf]. The table is valid for all three avoidance
    algorithms (it bounds the run sums themselves, not any
    per-algorithm refinement). Every call solves every component: the
    optimum is canonical, so no earlier solve could give a different
    table.
    @raise Invalid_argument if [g] has a directed cycle. *)

val min_buffers : Graph.t -> thresholds:int option array -> int array
(** The dimensioning direction: given a per-edge threshold table
    (entries as {!Interval.threshold}, [None] = never sends dummies),
    the smallest per-edge capacities under which the sufficient
    condition accepts the table. The optimum is unique: a branch node's
    out-edges get [1 + demand], every other edge 1. Demands across
    [None]-threshold edges do not propagate (such an edge never forces
    a dummy, so it cannot extend a demand chain).
    @raise Invalid_argument on a length mismatch or a directed cycle. *)

type witness = {
  wnode : Graph.node;  (** the branching node whose supply is exceeded *)
  wedges : Graph.edge list;  (** demand chain leaving [wnode] *)
  wdemand : int;  (** [sum (threshold - 1)] along the chain *)
  wsupply : int;  (** [min_cap_out (wnode) - 1] *)
}

val pp_witness : Format.formatter -> witness -> unit

val audit : Graph.t -> thresholds:int option array -> (unit, witness) result
(** Check a supplied threshold table against the sufficient run-sum
    discipline: it passes iff every branch node's demand is at most its
    smallest out-capacity minus one. The witness is fixed by one rule:
    the first component (components in order of their smallest edge
    id), in it the branch node of lowest id whose demand exceeds its
    supply, and from there the chain that takes, at each node, the
    out-edge of lowest id attaining the node's demand, until the demand
    left is zero. Conservative: a witness does not prove the table
    deadlocks (the condition is sufficient, not necessary), which is
    why lint reports it below [Error] severity.
    @raise Invalid_argument on a length mismatch or a directed cycle. *)
