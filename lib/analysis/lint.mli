(** Static diagnostics for stream plans: `streamcheck lint`.

    The paper's contribution is *static* deadlock reasoning — safety is
    decided from topology (SP / CS4 structure, Lemmas III.1–III.4,
    Theorem V.7) before anything runs. The rest of the repository
    exposes that reasoning as monolithic pass/fail tools ([classify],
    [verify], [repair]); this module turns it into a diagnostics layer:
    a registry of named rules, each yielding structured findings with a
    stable code ([FS101], ...), a severity, a location (nodes/channels),
    a human message, a concrete witness (the bad cycle, the undersized
    channel, the eroded budget), and — where the repository knows the
    cure — a machine-applicable fixit.

    Severity contract: a report with zero [Error]-severity findings is
    the linter's claim that the configured plan is safe — for graphs
    small enough to check, {!Fstream_verify.Verify} finds no reachable
    wedge under the corresponding avoidance wrapper (property-tested in
    [test/test_lint.ml] across all three wrapper configurations).
    [Warning]s flag degenerate-but-sound plans (e.g. a buffer so small
    its channel needs a dummy every sequence number); [Info]s are
    structural notes.

    Kernel fusion: the linter analyses the {e pre-fusion} graph — the
    topology the user wrote, whose node and channel ids its findings
    cite. This is sound for fused execution too: {!Fstream_core.Fusion}
    collapses only bridge edges, which lie on no undirected cycle, so
    every cycle the rules reason about survives fusion with its
    buffering and hop counts intact, and the derived fused interval
    table is exactly the original table restricted to the surviving
    channels (property-checked in [test/test_fusion.ml]). A plan that
    lints clean therefore stays clean under [~fuse:true]. *)

open Fstream_graph

type severity = Error | Warning | Info

val pp_severity : Format.formatter -> severity -> unit

(** Where a finding points. Channels are edge ids of the linted graph. *)
type location =
  | Whole_graph
  | Node of Graph.node
  | Channel of int
  | Nodes of Graph.node list
  | Channels of int list

type fixit =
  | Reroute of Fstream_repair.Repair.t
      (** replace the topology by the CS4 repair (paper §VII) *)
  | Scale_buffers of int
      (** multiply every buffer capacity by this factor
          ({!Fstream_core.Sizing.scale_caps}) *)

type fixit_cell
(** A diagnostic's fixit, computed when first read: see {!fixit}. *)

type diagnostic = {
  code : string;  (** stable rule code, e.g. ["FS201"] *)
  severity : severity;
  location : location;
  message : string;  (** one-line human message *)
  witness : string list;  (** concrete evidence, one line per element *)
  fixit : fixit_cell;
}

val fixit : diagnostic -> fixit option
(** The diagnostic's fixit. FS201's reroute runs
    {!Fstream_repair.Repair.repair} and FS301's buffer scale its sizing
    compile ({!Fstream_core.Sizing.min_uniform_scale}) on the first
    read, not when the rule fires, so a caller that reads only codes
    and severities (admission) never pays for them. Safe to call from any domain; the value does not
    depend on which read computes it. *)

type rule = {
  id : string;
  title : string;  (** short description for registries / SARIF *)
  default_severity : severity;
}

val rules : rule list
(** The registry, in code order. Every diagnostic's [code] names one of
    these. *)

val rule : string -> rule option

type config = {
  algorithm : Fstream_core.Compiler.algorithm;
      (** the plan being audited (default [Non_propagation]) *)
  backend : Fstream_core.Compiler.backend;
      (** interval machinery for the audited plan (default [Exact]);
          [Lp] additionally arms the FS305 run-sum audit *)
  max_cycles : int;
      (** budget, in simple cycles examined, for each rule's cycle
          search (default 200_000) — FS201's witness and each round of
          its reroute fixit's repair, FS202, FS303 — and for the
          general route of lint's own compile *)
  audit_thresholds : Fstream_core.Thresholds.t option;
      (** an externally supplied threshold table to audit against the
          computed intervals (rule FS302); [None] audits nothing *)
  spec : Fstream_workloads.App_spec.t option;
      (** per-node behaviours to lint against the topology and plan
          (rules FS401–FS403) *)
}

val default_config : config

type report = {
  diagnostics : diagnostic list;
      (** sorted by code, then location, then message *)
  incomplete : string option;
      (** when analysis could not finish: what was skipped. Set when a
          cycle search exhausted [max_cycles] with its rule undecided
          (FS303's whole-graph fold, or FS202's search on a graph lint
          cannot classify, before its first witness), or when the plan
          gave up on its cycle budget
          ({!Fstream_core.Compiler.Cycle_budget_exceeded}). A
          lint-clean verdict is not trustworthy in this state. *)
}

val run :
  ?config:config ->
  ?plan:(Fstream_core.Compiler.plan, Fstream_core.Compiler.error) result ->
  Graph.t ->
  report
(** Lint [g] under [config] (default {!default_config}).

    [plan], when given, must be the compile of [g] under
    [config.algorithm] and [config.backend] — cold
    ({!Fstream_core.Compiler.compile}) or incremental
    ({!Fstream_core.Compiler.recompile}); the FS3xx rules audit that
    table, so a server lints exactly the table its tenants get. Without
    it, lint compiles [g] itself (under [max_cycles]). Either way the
    CS4 decomposition is read from the plan's route when it carries
    one ([Cs4_route], or the exact half of a [Min_route]); otherwise
    lint classifies.

    FS201 and FS202 are decided by the classification (Theorem V.7):
    [Cs4.classify] rejects a block only when that block holds a cycle
    with several sources, so on a two-terminal DAG both fire exactly
    when it rejects one, and neither fires on a CS4 graph. Cycles are
    only their witnesses. Both rules share one early-stopping search
    ({!Fstream_ladder.Cs4.block_witnesses}) over the edges the
    rejected block carries, in {!Cycles.enumerate} order, stopped at
    the fifth multi-source cycle and examining at most [max_cycles]
    cycles: FS201 cites the first (the cycle a search stopped at the
    first would find), and FS202 lists them all. When the search found
    none, each rule is reported once, located at the block's
    endpoints, without a witness. Either way the report stays complete.
    Only on a DAG lint cannot classify (not connected or not
    two-terminal) does FS202 search the whole graph, and there a budget
    that runs out before the first witness marks the report
    incomplete. FS201's reroute fixit ({!Fstream_repair.Repair.repair})
    takes its witnesses from the rejected block the same way.

    FS203 reads its count off the classification: the whole-graph
    series/parallel reduction stalls exactly when a ladder block
    exists, with one super-edge per maximal run of consecutive SP
    blocks plus each ladder's core ({!Fstream_ladder.Ladder.core_edges}).
    Lint runs no reduction of its own.

    FS303 (under [Propagation] with a plan) still folds every cycle of
    the graph ({!Cycles.fold}), one at a time; its exhausted budget
    marks the report incomplete. So under [Non_propagation] or
    [Relay_propagation] no rule searches a two-terminal DAG's cycles
    outside its rejected block, and no cycle search marks the report
    incomplete, whatever the cycle count (a plan that gave up on its
    own budget still does). *)

val count : report -> severity -> int

(** {2 The rules' context}

    Exposed so a test can run the rules over a context built another
    way — the differential suite compares {!run} against a
    self-classifying, self-compiling reference, with FS201 and FS202
    checked against eager whole-graph enumeration. {!run} skips the
    DAG and connectivity checks when given an [Ok] plan, which proves
    both. *)

type ctx = {
  g : Graph.t;
  cfg : config;
  dag : bool;
  connected : bool;
  classification :
    (Fstream_ladder.Cs4.t, Fstream_ladder.Cs4.failure) result option;
      (** [None] unless connected and two-terminal *)
  plan :
    (Fstream_core.Compiler.plan, Fstream_core.Compiler.error) result option;
      (** [None] unless a connected DAG *)
  mutable incomplete : string option;
}

val run_ctx : ctx -> report
(** Run every rule over the context and sort the findings. A plan that
    exhausted its cycle budget marks the report incomplete unless a
    cycle search already did. [run ?config ?plan g] is [run_ctx]
    over lint's own context for [g]. *)

val apply_fixes : Graph.t -> report -> (Graph.t * string list, string) result
(** Apply every fixit of the report to the graph: first the CS4 reroute
    (if any finding carries one), then the largest buffer-scaling
    factor. Returns the fixed graph and a human summary line per action
    taken; [Error] if the report carries no fixit at all, or if the
    scaled capacities would sum past
    {!Fstream_graph.Graph.max_total_cap}. *)
