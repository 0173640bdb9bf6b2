(** Polynomial LP interval backend for general DAGs.

    The paper's threshold construction is exact but exponential outside
    CS4: {!General} folds over every undirected simple cycle. Following
    the LP line of Sirdey & Aubry (PAPERS.md), this module instead
    solves one small linear program per biconnected component and reads
    a {e sufficient, conservative} safe-interval table off the optimum
    — polynomial in the graph size, for {e any} connected DAG (no
    two-terminal requirement).

    {2 Encoding}

    Per biconnected component [B] (bridges lie on no undirected cycle
    and keep interval [Inf]):

    - a slack variable [x_e >= 0] per [B]-edge — the dummy budget
      [t_e - 1] the edge may accumulate;
    - a demand variable [D_v >= 0] per [B]-node — an upper bound on the
      largest [sum x_e] over directed paths leaving [v] inside [B];
    - {e chain rows} [x_e + D_w - D_v <= 0] for every [B]-edge
      [e = (v, w)], making each [D_v] dominate every downstream demand
      path;
    - {e branch rows} [D_s <= min_cap_out(s) - 1] at every node [s]
      with two or more outgoing [B]-edges — exactly the nodes that can
      be the source of an undirected cycle;
    - one aggregate box row [sum x_e <= sum cap_e], keeping the
      objective bounded;
    - objective: maximize [sum x_e] (total dummy slack, the mirror of
      minimizing total forced buffer traffic).

    Safety: every run [R] of every undirected simple cycle starts at a
    cycle source [s] (two outgoing cycle edges, both in one component)
    and is a directed path, so
    [sum_R (t_e - 1) <= sum_R x_e <= D_s <= min_cap_out(s) - 1
     <= L(opp R) - 1] — the run-sum discipline rule FS303 checks, hence
    conservative with respect to the exact backend but never unsafe.
    The origin ([x = 0], thresholds all 1: the SDF strawman) is always
    feasible, so the interval LP cannot be infeasible. *)

open Fstream_graph

(** Dense two-phase primal simplex over {!Rational}, Bland's rule (so
    it terminates on degenerate bases). Exposed for unit tests and for
    callers with bespoke programs; the interval encoding above is
    {!resolve}. *)
module Simplex : sig
  type outcome =
    | Optimal of {
        objective : Rational.t;
        primal : Rational.t array;  (** one value per structural variable *)
        dual : Rational.t array;  (** shadow price per row, [>= 0] *)
      }
    | Unbounded
    | Infeasible of { farkas : Rational.t array }
        (** row multipliers [y >= 0] with [y^T A >= 0] componentwise
            and [y^T b < 0]: a certificate that [Ax <= b, x >= 0] is
            empty. Rows with positive weight are the conflicting
            constraints — the "dual witness" surfaced by lint. *)

  val maximize :
    objective:Rational.t array ->
    rows:(Rational.t array * Rational.t) array ->
    outcome
  (** [maximize ~objective ~rows] solves
      [max objective^T x  s.t.  a_i^T x <= b_i  for (a_i, b_i) in rows,
      x >= 0]. Negative right-hand sides are allowed (phase 1 runs
      automatically). Every coefficient array must have length
      [Array.length objective]. *)

  val solve_nonneg :
    ?hint:int array ->
    objective:Rational.t array ->
    rows:(Rational.t array * Rational.t) array ->
    unit ->
    (Rational.t array * int array * int * bool) option
  (** Warm-startable variant for programs whose right-hand sides are
      all non-negative (every interval program is: chain rows have
      [b = 0], branch rows [min_cap - 1 >= 0], the box row a capacity
      sum) — the slack basis is always primal-feasible, so no phase 1
      ever runs and the cold path replays {!maximize}'s phase 2
      pivot-for-pivot. [hint] is a proposed basic column per row
      ([-1] = keep the row's slack): the tableau is crashed onto it,
      then repaired by primal simplex if primal-feasible, by Bland
      dual simplex if dual-feasible, and otherwise re-solved cold from
      the slack basis. Returns
      [Some (primal, basis, pivots, used_warm)] — [pivots] counts
      every pivot made, {e including} those of a failed warm attempt
      that fell back cold — or [None] if the program is unbounded.
      @raise Invalid_argument on a length mismatch or a negative
      right-hand side. *)
end

type state
(** Opaque per-component solver state — the optimum's interval values
    and final simplex basis, keyed by the graph's edge and node ids —
    carried from one {!resolve} call to the next for warm starts. *)

type resolve_stats = {
  rcomponents : int;  (** components solved or spliced this call *)
  rrows : int;  (** total rows, counting spliced components' programs *)
  rspliced : int;  (** components copied verbatim, zero pivots *)
  rwarm : int;  (** components re-solved from a translated basis *)
  rcold : int;  (** components solved from scratch (incl. fallbacks) *)
  rpivots : int;  (** simplex pivots, cumulative incl. failed warms *)
}

val resolve :
  ?warm:state ->
  ?edge_map:int option array ->
  ?node_map:int option array ->
  ?dirty:bool array ->
  Graph.t ->
  Interval.t array * resolve_stats * state
(** The backend entry point: a safe-interval table for any connected
    DAG, one LP per biconnected component, bridges [Inf], plus the
    solver state a later call can warm-start from. Total work is
    polynomial in nodes + edges. The table is valid for all three
    avoidance algorithms (it bounds the run sums themselves, not any
    per-algorithm refinement). With no optional argument every
    component solves cold.

    With [warm] (the state of a previous solve of the graph this one
    was edited from), [edge_map] / [node_map] (old id -> surviving new
    id, as in {!Fstream_graph.Edit.delta}) and [dirty] (new edge ids
    whose records changed), each biconnected component of [g] is
    handled by the cheapest sound route: a component whose edges all
    survive unedited from exactly one old component is {e spliced} —
    previous optimum copied, no simplex at all; any other component
    with an identifiable ancestor is re-solved {e warm} from the
    ancestor's translated basis (falling back to a cold solve if the
    crash is neither primal- nor dual-feasible); components with no
    ancestor solve cold. Splicing is exact, not approximate: the
    component's program is syntactically identical to the old one's,
    so its optimum is the old optimum.
    @raise Invalid_argument if [g] has a directed cycle (the LP's
    demand chains presuppose acyclicity). *)

val min_buffers : Graph.t -> thresholds:int option array -> int array
(** The dimensioning direction: given a per-edge threshold table
    (entries as {!Interval.threshold}, [None] = never sends dummies),
    the smallest per-edge capacities — minimizing total buffer — under
    which the LP's sufficient condition accepts the table. Edges whose
    capacity the condition never consults get capacity 1. Demands
    across [None]-threshold edges do not propagate (such an edge never
    forces a dummy, so it cannot extend a demand chain).
    @raise Invalid_argument on a length mismatch or a directed cycle. *)

type witness = {
  wnode : Graph.node;  (** the branching node whose supply is exceeded *)
  wedges : Graph.edge list;  (** demand chain leaving [wnode] *)
  wdemand : int;  (** [sum (threshold - 1)] along the chain *)
  wsupply : int;  (** [min_cap_out (wnode) - 1] *)
}

val pp_witness : Format.formatter -> witness -> unit

val audit : Graph.t -> thresholds:int option array -> (unit, witness) result
(** Check a supplied threshold table against the LP polytope: feasible
    means the table satisfies the sufficient run-sum discipline
    everywhere. On failure the Farkas certificate of the infeasible
    program is decoded into a concrete witness — the demand chain and
    the branching node it overloads. Conservative: a witness does not
    prove the table deadlocks (the condition is sufficient, not
    necessary), which is why lint reports it below [Error] severity.
    @raise Invalid_argument on a length mismatch or a directed cycle. *)
