(** The structured event vocabulary of the runtime.

    Both engines ({!Fstream_runtime.Engine} and
    {!Fstream_parallel.Parallel_engine}) narrate a run as a stream of
    these events, delivered to a {!Sink}. The vocabulary is closed and
    typed so that downstream consumers — the {!Metrics} registry, the
    Chrome {!Trace_json} writer, and the replay oracle
    [Fstream_runtime.Report.of_events] — never parse text.

    Two invariants make the stream a faithful account of a run:

    - {e completeness}: every state transition the engine performs
      (a push, a pop, a firing, a dummy decision) appears as exactly
      one event, so a run's {!Fstream_runtime.Report.t} is a pure
      function of its event log (the replay oracle checks this
      bit-for-bit);
    - {e visit independence}: the sequential engine emits the same
      transition events as a reference loop that visits every node
      every round ([Blocked] is the one exception — it narrates
      visits, and the engine's worklist visits a blocked node only
      when woken or after a visit that made progress). *)

type payload = Data | Dummy | Eos
(** What kind of message crossed a channel. The runtime reads it off
    the message's int code ([Fstream_runtime.Firing.Ring.kind]). *)

type outcome = Completed | Deadlocked | Budget_exhausted
(** How a run ended. This is the canonical definition; the runtime
    re-exports it as [Fstream_runtime.Report.outcome]. *)

type t =
  | Round_started of { round : int }
      (** sequential engine only: a scheduler round began (1-based) *)
  | Node_fired of {
      node : int;
      seq : int;
      got : int list;  (** in-edge ids that delivered data for [seq] *)
      got_dummy : bool;
      sent : int list;  (** out-edge ids the kernel kept (data enqueued) *)
    }
  | Subnode_fired of { node : int; sub : int; seq : int }
      (** a compound (fused) node [node] executed original sub-node
          [sub] for [seq] — emitted by [Fstream_runtime.Fused] kernels
          between the enclosing [Node_fired]'s pops and pushes, so
          fused-chain firings stay attributable to the pre-fusion
          topology. [sub] indexes the {e original} graph; replay and
          metrics folds over the running (fused) graph ignore it. *)
  | Push of { edge : int; seq : int; payload : payload }
      (** a message entered a channel's buffer *)
  | Pop of { edge : int; seq : int; payload : payload }
      (** a message left a channel's buffer (consumed by its receiver) *)
  | Dummy_emitted of { node : int; edge : int; seq : int }
      (** the wrapper decided a dummy is due on [edge]; it now sits in
          the channel's coalescing slot awaiting delivery *)
  | Dummy_dropped of { edge : int; seq : int }
      (** a queued dummy was superseded before delivery — coalesced
          with a newer dummy, overtaken by data, or discarded at EOS *)
  | Blocked of { node : int; edge : int }
      (** a visited node still holds a pending send stuck on full
          channel [edge] (once per visit while stuck) *)
  | Eos of { node : int }  (** the node sent end-of-stream and retired *)
  | Wedge of { round : int }
      (** the sequential engine detected a deadlock in [round] *)
  | Run_finished of { outcome : outcome }
      (** terminal event: every run emits exactly one, last *)

val name : t -> string
(** Constructor name, e.g. ["Push"] — used as the Chrome trace event
    name. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_payload : Format.formatter -> payload -> unit
