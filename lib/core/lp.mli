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

(** Dense simplex over {!Rational}: one tableau, one pivot, one primal
    and one dual loop, Bland's smallest-index rule throughout (so it
    terminates on degenerate bases). {!resolve} solves the interval
    programs through it, {!min_buffers} and {!audit} their own; it is
    exposed for unit tests and for callers with bespoke programs. *)
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

  type solution = {
    outcome : outcome;
    basis : int array;
        (** the basic column per row at the end: structural variables
            [0, n), then one slack per row, then phase 1's artificials.
            Passed as a later [hint], it warm-starts a nearby program. *)
    pivots : int;
        (** every pivot made: phase 1, the crash onto a hint and any
            repair of it, phase 2, and a cold re-solve after a hint was
            abandoned (wasted work is still work) *)
    warm : bool;  (** the solve started from [hint] and kept it *)
  }

  val maximize :
    ?hint:int array ->
    objective:Rational.t array ->
    rows:(Rational.t array * Rational.t) array ->
    unit ->
    solution
  (** [maximize ~objective ~rows ()] solves
      [max objective^T x  s.t.  a_i^T x <= b_i  for (a_i, b_i) in rows,
      x >= 0]. Every coefficient array must have length
      [Array.length objective].

      A program with a negative right-hand side runs phase 1 first and
      ignores [hint]. Otherwise the slack basis is feasible and phase 1
      never runs: with no [hint], phase 2 starts from the slack basis;
      with a [hint] (a proposed basic column per row, [-1] keeps the
      row's slack; ignored unless its length is the row count) the
      tableau is crashed onto it, then repaired by the primal loop if
      primal-feasible, by the dual loop if dual-feasible, and otherwise
      abandoned for a cold solve. The optimum's objective never depends
      on the hint; which optimal vertex is reached may. *)
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
  ?warm:state * Edit.delta ->
  Graph.t ->
  Interval.t array * resolve_stats * state
(** The backend entry point: a safe-interval table for any connected
    DAG, one LP per biconnected component, bridges [Inf], plus the
    solver state a later call can warm-start from. Total work is
    polynomial in nodes + edges. The table is valid for all three
    avoidance algorithms (it bounds the run sums themselves, not any
    per-algorithm refinement). Without [warm] every component solves
    cold.

    With [warm:(s, d)] — [s] the state of a solve of [d.base] and [g]
    the graph [d] edited it into, [d.graph] — each biconnected
    component of [g] asks {!Edit.ancestry} which previous
    component it descends from. An unedited copy of one is {e spliced}:
    the previous optimum is copied, no simplex at all. That is exact,
    not approximate: the component's program is the old one's, so its
    optimum is the old optimum. Any other component with an ancestor
    is re-solved {e warm} from the ancestor's basis, translated to the
    new columns ({!Simplex.maximize}'s [hint]); components with no
    ancestor solve cold.
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
