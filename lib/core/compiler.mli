(** The "compiler pass" the paper envisions: given a streaming DAG with
    channel buffer capacities, decide how its dummy intervals can be
    computed and compute them.

    The graph is classified with {!Fstream_ladder.Cs4.classify}; CS4
    graphs dispatch per serial block to the polynomial algorithms
    (SETIVALS / SP Non-Propagation on SP blocks, the §VI recurrences /
    family sweep on ladder blocks). Non-CS4 DAGs fall back — when
    permitted — to the exponential general-DAG baseline, which is the
    situation the paper tells programmers to redesign their topology to
    avoid.

    There is one compile route. {!compile}, {!compile_cached} and
    {!recompile} all run the same dispatch: DAG and connectivity
    checks, classification, then the CS4 blocks, the general fallback
    or the LP according to {!backend}, the Auto backend's edge-wise
    min, and finally {!Options.fuse}. A usable previous epoch (see
    {!recompile}) changes only what that dispatch starts from — the
    CS4 blocks it may splice — never which route runs. *)

open Fstream_graph
open Fstream_ladder

type algorithm =
  | Propagation
      (** the paper's Propagation intervals: finite only on edges
          leaving a cycle source (Fig. 3: "other edges are infinite").
          Use for reproducing the paper's tables; for driving the
          runtime wrapper soundly under arbitrary filtering, use
          {!Relay_propagation} — see DESIGN.md, "Deviations". *)
  | Non_propagation
  | Relay_propagation
      (** sound Propagation-wrapper thresholds: every cycle edge is
          bounded by its opposing run's buffer length (no hop
          division) *)

(** Which interval machinery computes the table. *)
type backend =
  | Exact  (** the paper's constructions: CS4 dispatch, exponential
               general fallback — today's behaviour, and the default *)
  | Lp
      (** the polynomial {!Lp} backend on every topology: sufficient,
          conservative intervals from one difference-constraint
          program per biconnected component, solved by max-flow;
          accepts any connected DAG (no two-terminal requirement, no
          cycle enumeration) *)
  | Auto
      (** exact wherever it is polynomial or affordable — CS4 graphs,
          then the general fallback under [max_cycles] — and the LP
          where the exact route would give up: a blown cycle budget or
          (with [allow_general = false]) a non-CS4 topology *)

type route =
  | Cs4_route of Cs4.t  (** polynomial path, with the decomposition *)
  | General_route of { cycles : int }
      (** exponential fallback; [cycles] is how many undirected simple
          cycles were enumerated *)
  | Lp_route of { components : int; rows : int }
      (** polynomial LP backend; [components] biconnected components
          carried cycles, [rows] their programs' chain and branch
          rows ({!Lp.resolve_stats}) *)
  | Min_route of { exact : route; lp : route }
      (** the {!Auto} backend when both tables were affordable: the
          plan's intervals are the edge-wise minimum of the exact and
          LP tables. Safety is downward-closed in the table (smaller
          intervals send dummies sooner; threshold 1 everywhere is the
          trivially safe SDF strawman), so the min of two safe tables
          is safe — and since neither table dominates the other
          (bench §LP1), the min is the one table consistent with
          both certificates. *)

type fused = {
  fusion : Fusion.t;
  fused_intervals : Interval.t array;
      (** indexed by fused edge id; derived from the original table via
          {!Fusion.derive_intervals} — provably (and property-checked)
          equal to recompiling the same algorithm on [fusion.graph] *)
}

type plan = {
  algorithm : algorithm;
  intervals : Interval.t array;  (** indexed by edge id *)
  route : route;
  fused : fused option;
      (** present when the plan was compiled with [~fuse:true] *)
}

type error =
  | Not_a_dag  (** the topology has a directed cycle *)
  | Disconnected  (** the underlying undirected graph is not connected *)
  | Not_two_terminal
      (** CS4 classification was required and the graph is not a
          two-terminal DAG *)
  | Non_cs4_rejected of Cs4.failure
      (** non-CS4 and [~allow_general:false]: the compiler rejects the
          topology, as the paper advises, with the offending block *)
  | Cycle_budget_exceeded of int
      (** the general fallback gave up after enumerating this many
          undirected simple cycles *)

val pp_error : Format.formatter -> error -> unit

val error_to_string : error -> string

(** Compilation options. Build a value by record update on
    {!Options.default}:
    [{ Compiler.Options.default with fuse = true }]. *)
module Options : sig
  type t = {
    allow_general : bool;
        (** permit the exponential fallback on non-CS4 DAGs (default
            [true]); with [false] such graphs are [Non_cs4_rejected],
            mirroring a compiler that rejects unsupported topologies *)
    max_cycles : int;
        (** bound on the general fallback's undirected-simple-cycle
            enumeration (default 10 million); exceeding it yields
            [Cycle_budget_exceeded] under [backend = Exact] and hands
            over to the LP under [backend = Auto] *)
    backend : backend;
        (** which interval machinery runs (default {!Exact}, the
            historical behaviour); see {!backend} *)
    fuse : bool;
        (** additionally run the {!Fusion} pass on any successfully
            compiled topology — including the general-fallback route —
            and attach the partition plus the derived fused interval
            table as [plan.fused] (default [false]) *)
    pin : (Graph.node -> bool) option;
        (** only meaningful with [fuse = true]: pinned nodes stay
            unfused (forwarded to {!Fusion.fuse}) *)
    filter_class : (Graph.node -> int) option;
        (** only meaningful with [fuse = true]: chains never span a
            filter-behaviour-class change (forwarded to
            {!Fusion.fuse}) *)
  }

  val default : t
end

val compile :
  ?options:Options.t -> algorithm -> Graph.t -> (plan, error) result
(** Classify the topology and compute its interval table under
    [options] (default {!Options.default}): {!compile_cached} on a
    fresh {!cache_create}, its stats dropped. The general fallback only
    needs acyclicity and connectivity. Thresholds for a fused run must
    be built against [fusion.graph] and [fused_intervals]; the
    {!Thresholds.t} graph fingerprint then rejects any attempt to run a
    fused table on the original topology, and vice versa. *)

(** {2 Incremental recompilation}

    A {!cache} carries one tenant's compile residue from epoch to
    epoch: the previous epoch's CS4 classification and exact table,
    when its exact route took the CS4 path. {!recompile} reuses it for
    one kind of edit only. Every interval is local to its serial block
    (Theorem V.7), so after a resize-only script
    ({!Fstream_graph.Edit.delta}[.resize_only]) a block with no
    resized edge splices its previous values without any interval
    arithmetic, and every other block is refreshed against the new
    capacities and recomputed by the paper's update for its class; the
    DAG, connectivity and classification checks are skipped, since the
    topology did not change. Any structural op compiles cold, and the
    LP always solves every component. The result is bit-for-bit the
    table a full compile of the edited graph would produce (the LP's
    optimum is canonical) — property-checked in
    [test/test_reconfigure.ml]. *)

type cache

val cache_create : unit -> cache
(** A fresh, empty compile cache. Thread-safe: all operations on one
    cache serialize on an internal lock. *)

val cache_fork : cache -> cache
(** A cache starting from [cache]'s most recent epoch that records its
    own epochs from then on: a compile or {!recompile} through the fork
    leaves [cache]'s epoch where it was. The fork has its own lock, so
    it never waits on [cache] or on another fork. *)

type recompile_stats = {
  spliced_edges : int;
      (** exact-route edges of the blocks a resize-only edit left
          clean, whose values were copied from the previous epoch (0
          on every other compile) *)
  recomputed_edges : int;
      (** exact-route edges of the blocks recomputed by interval
          arithmetic (every edge on a fresh compile) *)
  lp_stats : Lp.resolve_stats option;
      (** present when the LP participated ([Lp] or [Auto] backend) *)
}

val compile_cached :
  ?options:Options.t ->
  cache ->
  algorithm ->
  Graph.t ->
  (plan * recompile_stats, error) result
(** Compile fresh through the cache, recording the epoch residue that
    a later {!recompile} reuses. The plan is the one {!compile} returns
    on the same arguments. *)

val recompile :
  ?options:Options.t ->
  cache ->
  algorithm ->
  Fstream_graph.Edit.delta ->
  (plan * recompile_stats, error) result
(** Compile [delta.graph] against the cache's previous epoch. The
    epoch is usable when [delta] only resized, and the epoch compiled
    [delta.base] on the CS4 path under the same algorithm and backend;
    otherwise this is a fresh compile, still recording the new
    epoch. *)

val send_thresholds : Graph.t -> Interval.t array -> Thresholds.t
(** Integer gap thresholds for the runtime wrappers, bound to the graph
    they were computed for: an edge with interval [Inf] never needs
    dummies; a finite interval means a dummy is due once the channel
    has gone [threshold] sequence numbers without a message
    ({!Interval.threshold}). Use directly for the Non-Propagation
    wrapper; for the Propagation wrapper use
    {!propagation_thresholds}. *)

val sdf_thresholds : Graph.t -> Thresholds.t
(** The strawman the paper's introduction argues against: emulate
    filtering in a synchronous-dataflow setting by sending a message
    (data or null) on every channel for every sequence number —
    threshold 1 everywhere. Trivially deadlock-free; used by the
    bandwidth ablation (bench A1) to quantify what the computed
    intervals save. *)

val propagation_thresholds : Graph.t -> Interval.t array -> Thresholds.t
(** Runtime thresholds for the Propagation wrapper from a
    [Propagation] interval table. Edges with finite intervals (cycle
    sources) keep their budget; edges with interval [Inf] that lie on
    an undirected cycle get threshold 1 — a relay may not let a
    filtered input stall the stream, otherwise per-hop slack
    accumulates past the opposing buffer capacity (the "relay erosion"
    deviation discussed in DESIGN.md). Bridge edges get [None]. *)

val pp_route : Format.formatter -> route -> unit
