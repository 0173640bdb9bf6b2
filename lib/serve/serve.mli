(** Multi-tenant serving layer: many live applications, one pool.

    Everything below [lib/serve] runs one topology per process; the
    serving layer is the resident-daemon shape — a {!t} owns one
    {!Fstream_parallel.Parallel_engine.Pool} and admits any number of
    tenant applications onto it. Three things happen at admission that
    a per-process runtime never needed:

    {ul
    {- {b One analysis per admission.} A new topology is compiled
       once, and lint ({!Fstream_analysis.Lint}) audits that very plan
       — the table its tenants will run — before it may run. The
       verdict rejects, in this order: an analysis that could not
       finish (a rule that reads cycles exhausted the cycle budget, or
       the plan gave up on it) — an unverified topology is not admitted
       on a shared pool; then Error-severity findings, with the
       findings as the reason — the linter's severity contract
       (lint-clean ⇒ no reachable wedge for checkable graphs) makes
       this exactly the pre-deployment verification step of the
       LP-verification line of work, applied at the front door; then a
       failed compile.}
    {- {b One registry.} Interval tables are a function of topology +
       capacities + backend, which {!Fstream_core.Thresholds}
       fingerprints cover together with the admission key. The
       registry maps each distinct (fingerprint, avoidance mode,
       backend) to its outcome — the plan lint audited and the
       verdict — and hands every key-equal tenant the {e physically
       same} threshold table (the [==] sharing is what the registry
       test pins down), or the same rejection. At production tenant
       counts, topologies repeat and compilation is the expensive
       step.}
    {- {b Fair-share scheduling.} Sessions multiplex onto the one
       pool; the pool's fixed per-instance grant quota (the
       instance-level analogue of its per-claim visit budget) keeps a
       hot tenant from starving the rest.}}

    Admitted sessions are additionally {e reconfigurable}: an
    {!Fstream_graph.Edit} script applied through {!reconfigure}
    recomputes the edited topology's threshold table {e incrementally}
    against the session's current compile cache (clean serial blocks
    splice, edited blocks recompute, LP components warm-start —
    {!Fstream_core.Compiler.recompile}), lints that table, drains the
    session to its run boundary and swaps graph + table
    atomically as a new epoch. A session whose report has been
    collected may be {!start}ed again, so a tenant alternates runs and
    reconfigurations indefinitely.

    Admission and execution are decoupled: {!admit} returns a
    {!session}, {!start} launches it (its shards immediately interleave
    with every other running session's), {!await} collects its
    {!Fstream_runtime.Report.t}. All functions are thread-safe except
    where noted. *)

open Fstream_graph
module Lint = Fstream_analysis.Lint
module Compiler = Fstream_core.Compiler
module Engine = Fstream_runtime.Engine
module Report = Fstream_runtime.Report

type t

(** Which avoidance wrapper admitted sessions run under. The
    threshold-table-carrying constructors of {!Engine.avoidance} are
    inapplicable here — tables are what the registry computes and
    shares, so tenants name the mode only. *)
type mode = No_avoidance | Propagation | Non_propagation

val pp_mode : Format.formatter -> mode -> unit

type rejection =
  | Lint_rejected of Lint.diagnostic list
      (** the Error-severity findings, in lint report order *)
  | Analysis_incomplete of string
      (** lint could not finish (what was skipped); an unverified
          topology is not admitted *)
  | Plan_rejected of Compiler.error
      (** the mode needs a threshold table and compilation failed *)
  | Edit_rejected of string
      (** a {!reconfigure} script was invalid for the session's
          current topology (id out of range, capacity < 1, …) *)

val pp_rejection : Format.formatter -> rejection -> unit

type session

val create : ?domains:int -> ?options:Compiler.Options.t -> unit -> t
(** Start a server: spawns its pool's worker domains.
    [domains] is {!Fstream_parallel.Parallel_engine.Pool.create}'s
    (default included); [options] (default
    {!Compiler.Options.default}) configures the
    registry's compiles — its [fuse] field is ignored, sessions run
    the topology as admitted. *)

val admit :
  t ->
  ?name:string ->
  ?spec:Fstream_workloads.App_spec.t ->
  ?backend:Compiler.backend ->
  mode:mode ->
  Graph.t ->
  (session, rejection) result
(** Admit the topology under [mode] with the shared threshold table.
    A (fingerprint, mode, backend) triple new to the registry is
    compiled once — under the server's options, with [max_cycles]
    capped at lint's budget (a graph whose exact route enumerates more
    would be rejected as incomplete anyway) — then linted against that
    plan, and its outcome (admitted with the table, or rejected) is
    registered; a known triple reuses its outcome without compiling or
    linting. Rejections come in the order [Analysis_incomplete],
    [Lint_rejected], [Plan_rejected], and a rejected topology never
    counts as a compile. The outcome depends on the backend (FS201 is
    a Warning under [Lp], an Error otherwise), so a per-tenant
    [backend] override (default: the server options') never sees
    another backend's verdict or table. With [spec], its per-node
    behaviours (rules FS401–FS403) are linted against the registry
    outcome's plan — never a second compile. [No_avoidance] needs no
    table: lint runs on its own compile and nothing is registered.
    [name] (default ["tenant-N"]) labels the session for reports.

    @raise Invalid_argument if [spec] is given but describes a
    different graph than the one being admitted. *)

val name : session -> string

val avoidance : session -> Engine.avoidance
(** The session's current avoidance value. Key-equal sessions admitted
    under the same (fingerprint, mode, backend) share it physically
    (same [Thresholds.t], compiled once) — [avoidance s1 == avoidance
    s2]. After a {!reconfigure} the session carries its new epoch's
    value. *)

val epoch : session -> int
(** How many successful {!reconfigure}s this session has absorbed;
    [0] as admitted. The session's threshold table is stamped with its
    registry generation ({!Fstream_core.Thresholds.epoch}). *)

val graph : session -> Graph.t
(** The session's current topology — the admitted graph until a
    {!reconfigure} succeeds, the edited graph afterwards. Kernel
    factories for a restarted session must be built against this. *)

val start :
  t ->
  ?sink:Fstream_obs.Sink.t ->
  kernels:(Graph.node -> Engine.kernel) ->
  inputs:int ->
  session ->
  unit
(** Launch the session on the shared pool; returns immediately. The
    kernel-factory contract is the pool's: per-node, per-session
    state. A session whose previous run's report has been collected
    (by {!await} or a {!reconfigure} drain) may be started again — it
    runs its current epoch's topology and table.
    @raise Invalid_argument if the session is already running, or if
    the server has been {!shutdown}. *)

val await : session -> Report.t
(** Block until the session's instance quiesces; re-raises its kernel
    exception if one aborted it. Safe to call from several threads
    (the pool join happens exactly once); subsequent calls return the
    cached report until the next {!start}. Must not be called from a
    pool worker. *)

val run :
  t ->
  ?sink:Fstream_obs.Sink.t ->
  kernels:(Graph.node -> Engine.kernel) ->
  inputs:int ->
  session ->
  Report.t
(** [start] then [await]: sequential convenience for one session —
    concurrency comes from starting many sessions before awaiting
    any. *)

val reconfigure :
  t ->
  session ->
  Edit.op list ->
  (Compiler.recompile_stats option, rejection) result
(** Apply the edit script to the session's current topology and move
    the session to the resulting epoch. The edited topology passes the
    same admission bar as a fresh tenant, keyed by (fingerprint, mode,
    backend): a registry hit (another tenant already runs this
    topology, or it was refused before) reuses the outcome —
    [Ok None], no compile at all; otherwise an {e incremental}
    recompile against the session's current registry entry's cache,
    linted as compiled ([Ok (Some stats)] reports what was spliced,
    recomputed and warm-started). The recompile runs on a fork of that
    cache ({!Fstream_core.Compiler.cache_fork}), so the entry keeps its
    own epoch for later edits. A rejection leaves the session untouched
    on its current epoch, the compile counters unchanged, and the next
    edit recompiling incrementally from that epoch.
    Only after the table is ready does the session
    drain: a running session is joined at its run boundary (its report
    stays cached for {!await}), then graph, table and {!epoch} swap
    atomically, with no run in flight. Concurrent reconfigures of one
    session apply one after the other, each to the epoch the previous
    one produced, so none is lost and {!epoch} counts the [Ok] results.
    The server's [recompiles] / [warm_pivots] counters advance when an
    incremental recompile happened.

    Draining joins the in-flight run, so the same restriction as
    {!await} applies: do not call from a pool worker. *)

val shutdown : t -> unit
(** Shut the pool down. Only after every started session has been
    awaited; every later {!start} raises [Invalid_argument]. *)

(** Admission-desk counters since {!create}. *)
type stats = {
  tenants : int;  (** sessions admitted *)
  rejections : int;  (** admissions and reconfigurations refused *)
  compiles : int;
      (** distinct (fingerprint, mode, backend) tables compiled and
          admitted *)
  recompiles : int;
      (** admitted incremental recompiles by {!reconfigure} *)
  warm_pivots : int;
      (** simplex pivots spent by those recompiles' LP re-solves
          (cumulative, including any failed warm attempt's) *)
}

val stats : t -> stats
