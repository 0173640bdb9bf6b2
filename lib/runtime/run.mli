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

(** Which engine executes the application. Neither engine has a
    tuning parameter: the schedule does not decide deadlock freedom
    (the wrappers' thresholds and the buffer sizes do), so there is
    nothing to tune for correctness, and the pool's per-task firing
    bound and fair-share quota are constants of
    [Fstream_parallel.Parallel_engine]. The worker count stays a
    parameter because it is a property of the host. *)
type engine =
  | Sequential  (** the deterministic engine of {!Engine.run} *)
  | Pool of { domains : int option }
      (** the sharded domain pool of
          [Fstream_parallel.Parallel_engine.run]; [domains = None]
          means [Parallel_engine.default_domains ()] *)

type config = {
  engine : engine;
  avoidance : Engine.avoidance;
  sink : Fstream_obs.Sink.t option;
  deadlock_dump : Format.formatter option;
      (** sequential engine only: dump the wedge on deadlock *)
}

(** {1 Constructors} *)

val sequential :
  ?sink:Fstream_obs.Sink.t ->
  ?deadlock_dump:Format.formatter ->
  avoidance:Engine.avoidance ->
  unit ->
  config

val pool :
  ?domains:int ->
  ?sink:Fstream_obs.Sink.t ->
  avoidance:Engine.avoidance ->
  unit ->
  config
(** Pool config; [domains] defaults to automatic. *)

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
    errors (mismatched threshold table, [domains] out of range). *)

(** {1 Engine registration (internal plumbing)} *)

type pool_impl =
  domains:int option ->
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
