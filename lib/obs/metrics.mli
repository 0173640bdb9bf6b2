(** The metrics registry: aggregates computed from the event stream.

    Everything here is a pure fold over {!Event} values — the registry
    never peeks at engine internals, so the same collector serves both
    engines and the replayed logs. The quantities are the ones the
    paper's argument turns on:

    - per-channel {e high-watermark occupancy} — how much of each
      buffer a run actually used (input to LP-style buffer
      dimensioning, cf. Sirdey & Aubry);
    - per-channel {e dummy overhead} — dummy traffic relative to the
      synchronous-dataflow strawman that sends a null on every filtered
      sequence number ([Compiler.sdf_thresholds]): the SDF baseline
      would push [inputs - data] nulls, so the ratio is
      [dummies / (inputs - data)], the fraction of the strawman's
      overhead the computed intervals actually pay (when [inputs] is
      not supplied the denominator is unknown and the ratio falls back
      to dummies per delivered message);
    - per-node {e blocked visits} — scheduler visits that found the
      node stuck on a full channel (the sequential worklist and the
      pool visit blocked nodes on different occasions, so compare
      within one engine);
    - {e rounds to first wedge} — how long the run survived before
      deadlocking, if it did. *)

open Fstream_graph

type edge_metrics = {
  data : int;  (** data messages pushed *)
  dummies : int;  (** dummy messages pushed *)
  high_watermark : int;  (** peak buffer occupancy, messages *)
  capacity : int;  (** the channel's configured capacity *)
  dummy_overhead : float;  (** see above *)
}

type t = {
  edges : edge_metrics array;  (** indexed by edge id *)
  fired : int array;  (** firings per node *)
  blocked_visits : int array;  (** blocked scheduler visits per node *)
  rounds : int;  (** last round started; [0] for the parallel engine *)
  rounds_to_first_wedge : int option;
  events : int;  (** total events folded *)
}

type collector
(** Incremental accumulator, usable as a live sink — no need to buffer
    the log for long runs. *)

val collector : graph:Graph.t -> ?inputs:int -> unit -> collector
val feed : collector -> Event.t -> unit
val sink : collector -> Sink.t
val result : collector -> t

val of_events : graph:Graph.t -> ?inputs:int -> Event.t list -> t

val pp : Format.formatter -> t -> unit
(** A per-edge table followed by node and run-level lines. *)
