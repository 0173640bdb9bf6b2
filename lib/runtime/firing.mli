(** The node step of §II, shared by every runtime.

    This module is the only home of the execution model of §II.A and
    of the two deadlock-avoidance wrappers of §II.B:

    - a node fires when every input channel is non-empty; it consumes
      all head messages carrying the minimum head sequence number [i]
      (heads with larger numbers were filtered upstream with respect to
      [i] and stay queued);
    - the node's {!kernel} sees which inputs carried data and picks the
      output channels that receive data — filtering is exactly the
      freedom to omit some;
    - sends that find their channel full park in a per-node pending
      ring (per-channel FIFO order preserved) and the node cannot fire
      again until a later {!flush} delivers them, reproducing the
      finite-buffer blocking that makes Fig. 2 deadlock;
    - under [Propagation], received dummies are forwarded on every
      output that got no data, and channels whose dummy interval is
      finite originate a dummy once the channel has gone [threshold]
      consecutive sequence numbers without a message;
    - under [Non_propagation], every channel applies its own threshold
      and dummies are absorbed by their receiver;
    - sources emit EOS after their last input; a node forwards EOS when
      all its inputs reach it.

    Dummies never enter the pending ring: each out-edge has a one-slot
    dummy mouth that waits for space without blocking the node,
    coalesces to the newest sequence number, and is superseded by data
    or EOS on the same channel (DESIGN.md, "Deviations").

    {!Engine} (the deterministic sequential scheduler) and
    [Fstream_parallel.Parallel_engine] (the sharded domain pool) both
    run this step; they differ only in which node they step next and
    in the {!hooks} through which a step pushes, locks and wakes.
    [Fstream_verify.Verify] deliberately keeps its own implementation
    of the same rule on immutable states: it is the independent oracle
    this step is checked against. *)

open Fstream_graph

type kernel = seq:int -> got:int list -> int list
(** See {!Engine.kernel}. *)

type avoidance =
  | No_avoidance
  | Propagation of Fstream_core.Thresholds.t
  | Non_propagation of Fstream_core.Thresholds.t
      (** See {!Engine.avoidance}. *)

val decode : Graph.t -> avoidance -> int option array * bool
(** The per-edge dummy thresholds of [avoidance] ([None]: the channel
    never originates a dummy) and whether received dummies are
    forwarded (only under [Propagation]).
    @raise Invalid_argument if the threshold table was computed for a
    different graph. *)

(** Per-node state. Only this module writes it; the runtimes read
    it. A node cannot fire while its pending ring is non-empty, so the
    ring never holds more than one firing's sends — at most
    [out_degree] entries — and is preallocated to exactly that. Both
    ring arrays hold immediate ints ({!Message.t} is one), so a step
    stores no pointer into them and takes no write barrier. *)
type node = private {
  kernel : kernel;
  pend_eid : int array;  (** pending ring: out-edge of each send *)
  pend_msg : Message.t array;  (** pending ring: the message of each send *)
  mutable pend_head : int;
  mutable pend_len : int;
  mutable next_input : int;  (** sources: next external sequence number *)
  mutable finished : bool;  (** EOS sent *)
  mutable slots : int;  (** out-edges holding a queued dummy slot *)
  mutable flush_id : int;  (** flush stamp for refused channels *)
  mutable got_data : int;  (** data messages consumed *)
}

(** What differs between the runtimes. *)
type hooks = {
  guard : (int -> Mutex.t) option;
      (** [Some lock_of]: steps of different nodes run at the same time,
          on several domains. Each push on a channel into node [dst]
          then holds [lock_of dst], and node [v]'s head scan and pops
          hold [lock_of v]; the sink goes behind a lock of its own, and
          each node gets its own scratch buffers. [None]: one step at a
          time. *)
  woke : int -> int -> unit;
      (** [woke v dst]: node [v]'s push just landed on an empty channel
          into [dst], which may now be runnable; called under [dst]'s
          lock. In a DAG [dst] follows [v] in topological order. *)
  freed : int array -> int -> unit;
      (** [freed producers k]: a node's pops just drained a full channel
          of each of [producers.(0 .. k - 1)], in increasing in-edge
          order; called once the node's own lock is released, before
          the kernel, and only when [k > 0]. Each producer precedes the
          popping node in topological order. *)
}

type t
(** The channels, the packed per-edge wrapper state, the CSR adjacency
    and the node records of one run. *)

val create :
  who:string ->
  ?sink:Fstream_obs.Sink.t ->
  hooks:hooks ->
  graph:Graph.t ->
  kernels:(Graph.node -> kernel) ->
  inputs:int ->
  avoidance:avoidance ->
  unit ->
  t
(** Fresh state: empty channels with the graph's capacities, every
    node at sequence number 0. [who] prefixes the kernel-validation
    error. Events go to [sink]; with none (or the null sink) they are
    not even constructed.
    @raise Invalid_argument as {!decode}. *)

val nodes : t -> node array

val observed : t -> bool
(** A sink is attached: emit events through {!event}. *)

val event : t -> Fstream_obs.Event.t -> unit

val flush : t -> int -> node -> bool
(** Retry node [v]'s pending sends once each (a refused channel blocks
    its later sends this pass), then deliver its dummy slots on
    channels with no data still queued. [false] when nothing landed
    (and at once when nothing is waiting). Every push lands in a
    firing or in a [flush] that returns [true]. *)

val fire : t -> int -> node -> bool
(** One firing of node [v], whose pending ring must be empty: a source
    takes its next input (or sends EOS after the last); any other node
    consumes its minimum-sequence heads (or forwards EOS once every
    input reached it) and runs its kernel; then the send phase, then
    one {!flush}. [false] when [v] cannot fire.
    @raise Invalid_argument if the kernel returns an edge [v] does not
    own. *)

val self_arming : t -> int -> bool
(** Node [v] can fire again with no outside event: it is not finished,
    nothing is pending, and every input is non-empty (vacuously, for a
    source). The pool re-queues a task by it; the sequential engine
    re-arms any node whose visit made progress instead, which covers
    every node this holds for. *)

val drained : t -> bool
(** Every node finished with nothing pending and every channel empty. *)

val snapshot : t -> Report.snapshot

val pp_state : Format.formatter -> t -> unit
(** Per-channel occupancy, head, last sequence number sent and dummy
    slot, then every node with sends pending. *)

val report : t -> Report.outcome -> Report.detail -> Report.t
(** Narrates [Run_finished]; message counts come from the channels'
    own counters. *)
