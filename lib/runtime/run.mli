(** The unified run facade: one entry point for every engine.

    Before this module, every component that wanted to execute an
    application had to hard-code which engine it was driving —
    {!Engine.run} for the deterministic sequential engine,
    [Fstream_parallel.Parallel_engine.run] for the sharded domain
    pool — and thread each engine's private optional arguments through
    its own plumbing. The serving layer ([Fstream_serve]) would have
    been a third copy of that plumbing; instead the engine choice is
    now data: a {!config} value with an {!engine} variant, executed by
    {!exec}. The CLI ([streamcheck simulate] and [streamcheck serve]),
    the benchmarks and the differential test suites all build configs
    and call {!exec}; [Engine.run] and [Parallel_engine.run] survive as
    thin per-engine wrappers.

    Dependency note: the pool engine lives in [fstream_parallel], which
    depends on this library, so {!exec} cannot call it directly.
    [Fstream_parallel] registers its implementation at module
    initialization ({!register_pool_impl}); executing a [Pool] config
    without that library linked raises [Failure]. The
    [filterstream.parallel] archive is built with [-linkall] so merely
    depending on it is enough. *)

open Fstream_graph

(** Which engine executes the application. *)
type engine =
  | Sequential of { batch : int }
      (** the deterministic engine of {!Engine.run} *)
  | Pool of { domains : int option; grain : int; stall_ms : int option }
      (** the sharded domain pool of
          [Fstream_parallel.Parallel_engine.run]; [domains = None]
          means {!default_domains} *)

type config = {
  engine : engine;
  avoidance : Engine.avoidance;
  max_rounds : int option;
      (** sequential engine only: round budget (default: the engine's
          generous bound). The pool has no round counter and ignores
          it. *)
  sink : Fstream_obs.Sink.t option;
  deadlock_dump : Format.formatter option;
      (** sequential engine only: dump the wedge on deadlock *)
}

(** {1 Shared defaults}

    The single source of truth for the engines' tuning defaults.
    [Parallel_engine] re-exports {!default_grain} and
    {!default_domains}; before these constants existed the pool's
    defaults were documented only in prose and the benchmarks
    hard-coded [32]. *)

val default_batch : int
(** [1] — exact legacy sequential behaviour. *)

val default_grain : int
(** [32] — consecutive firings of one node per pool task execution. *)

val default_stall_ms : int option
(** [None] — the structural quiescence check is the deadlock detector
    of record; the wall-clock backstop is opt-in. *)

val default_domains : unit -> int
(** Worker domains when [Pool { domains = None; _ }]: derived from
    [Domain.recommended_domain_count ()], at least 1, at most 8. *)

(** {1 Constructors} *)

val sequential :
  ?batch:int ->
  ?max_rounds:int ->
  ?sink:Fstream_obs.Sink.t ->
  ?deadlock_dump:Format.formatter ->
  avoidance:Engine.avoidance ->
  unit ->
  config
(** Sequential config; [batch] defaults to {!default_batch}. *)

val pool :
  ?domains:int ->
  ?grain:int ->
  ?stall_ms:int ->
  ?sink:Fstream_obs.Sink.t ->
  avoidance:Engine.avoidance ->
  unit ->
  config
(** Pool config; [grain] defaults to {!default_grain}, [stall_ms] to
    {!default_stall_ms}, [domains] to automatic. *)

val with_avoidance : config -> Engine.avoidance -> config
(** The same config under a different avoidance value — the
    re-execution idiom after a hot reconfiguration swaps a session's
    threshold table: keep the engine choice, swap the table. *)

val exec :
  config ->
  graph:Graph.t ->
  kernels:(Graph.node -> Engine.kernel) ->
  inputs:int ->
  unit ->
  Report.t
(** Execute the application under the configured engine. Exactly
    {!Engine.run} for [Sequential] configs and
    [Parallel_engine.run] for [Pool] configs — same validation, same
    {!Report.t}, same event vocabulary through [sink].

    @raise Failure on a [Pool] config when no pool engine is linked
    (see the module comment).
    @raise Invalid_argument for the underlying engine's argument
    errors (mismatched threshold table, [batch < 1], [grain < 1],
    [domains] out of range). *)

val pp_engine : Format.formatter -> engine -> unit
(** [sequential], with [(batch k)] when [k > 1]; [pool (...)] with the
    domains, grain and stall backstop. *)

(** {1 Engine registration (internal plumbing)} *)

type pool_impl =
  domains:int option ->
  grain:int ->
  stall_ms:int option ->
  sink:Fstream_obs.Sink.t option ->
  graph:Graph.t ->
  kernels:(Graph.node -> Engine.kernel) ->
  inputs:int ->
  avoidance:Engine.avoidance ->
  Report.t

val register_pool_impl : pool_impl -> unit
(** Called once by [Fstream_parallel] at module initialization; not
    for application code. Later registrations win (tests may inject a
    stub). *)
