(** A sequential run held as a value: {!sequential} builds the
    arguments of {!Engine.run}, {!exec} runs them.

    Nothing in the library calls this module. The CLI, the serving
    layer, the examples and the benchmarks call {!Engine.run} and
    [Fstream_parallel.Parallel_engine.run] directly; [Run] stays, with
    these signatures, only because the end-to-end benchmark
    ([perfbench/]) calls {!sequential} and {!exec}. The change that
    next edits that benchmark can call {!Engine.run} there and delete
    this module. *)

open Fstream_graph

type config = {
  avoidance : Engine.avoidance;
  sink : Fstream_obs.Sink.t option;
  deadlock_dump : Format.formatter option;
      (** dump the wedge on deadlock *)
}

val sequential :
  ?sink:Fstream_obs.Sink.t ->
  ?deadlock_dump:Format.formatter ->
  avoidance:Engine.avoidance ->
  unit ->
  config

val exec :
  config ->
  graph:Graph.t ->
  kernels:(Graph.node -> Engine.kernel) ->
  inputs:int ->
  unit ->
  Report.t
(** Exactly {!Engine.run} on the config's arguments: same validation,
    same {!Report.t}, same events through [sink].

    @raise Invalid_argument for {!Engine.run}'s argument errors. *)
