(** The unified run report: one result type for every engine.

    Both {!Engine.run} (sequential) and
    [Fstream_parallel.Parallel_engine.run] return a {!t}, so
    verification, benchmarks and the differential test suites compare
    engines through a single type instead of hand-copied fields.
    Engine-specific information — the deterministic round count and
    the frozen wedge snapshot, which only the sequential engine can
    produce — lives in the {!detail} variant payload.

    {!of_events} is the replay oracle: it reconstructs a report purely
    from the {!Fstream_obs.Event} log of a run. For the sequential
    engine the reconstruction is bit-for-bit equal to the report the
    engine returned (property-tested across avoidance modes and
    topology families in [test/test_obs.ml]) — which is the
    proof that the event stream is a complete account of the run. *)

open Fstream_graph

type outcome = Fstream_obs.Event.outcome =
  | Completed
  | Deadlocked
  | Budget_exhausted

type snapshot = {
  channel_lengths : int array;  (** per edge id, at the wedge *)
  node_blocked : bool array;
      (** nodes holding a pending send stuck on a full channel *)
  node_finished : bool array;
}
(** The frozen state of a deadlocked run — input to
    {!Diagnosis.explain}, which locates the witness cycle of §II.B. *)

type detail =
  | Sequential of { rounds : int; wedge : snapshot option }
      (** deterministic scheduler: [rounds] executed; [wedge] is the
          frozen state when [outcome = Deadlocked], else [None] *)
  | Parallel
      (** shared-memory engine: deadlock detected by exact quiescence
          of a preemptive schedule, so there is no round count and no
          deterministic snapshot *)

type t = {
  outcome : outcome;
  data_messages : int;  (** data pushes across all channels *)
  dummy_messages : int;  (** dummy pushes across all channels *)
  sink_data : int;  (** data messages consumed by sink nodes *)
  dropped_dummies : int;
      (** dummies superseded before delivery — coalesced with a newer
          dummy, overtaken by data, or discarded at end-of-stream *)
  per_edge_dummies : int array;
  detail : detail;
}

val rounds : t -> int option
(** [Some] for the sequential engine, [None] for the parallel one. *)

val wedge : t -> snapshot option
(** The wedge snapshot, when there is one. *)

val of_events : graph:Graph.t -> Fstream_obs.Event.t list -> t
(** Reconstruct the report of the run that produced this (complete)
    event log. Counts are folded from [Push]/[Pop]/[Dummy_dropped]
    events, the wedge snapshot from the occupancy and pending-send
    history, rounds from [Round_started], and the outcome from the
    terminal [Run_finished] (with a structural fallback for truncated
    logs: wedge seen — deadlocked; every node retired and every
    channel drained — completed; otherwise budget-exhausted). *)

val pp : Format.formatter -> t -> unit
val pp_outcome : Format.formatter -> outcome -> unit
