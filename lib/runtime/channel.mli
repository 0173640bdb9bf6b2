(** Bounded FIFO channels.

    A channel models one edge of the application DAG: reliable, in
    order, with a finite buffer of [capacity] messages — the finiteness
    that makes filtering deadlocks possible.

    The buffer is a preallocated circular [int array] of
    {!Message.t} codes: steady-state [push]/[pop_exn]/[peek_seq]
    allocate nothing and take no write barrier, which is what keeps
    the engine's hot loop off the minor heap (bench §C7). The
    option-returning [peek]/[pop] remain for call sites outside the hot
    path.

    Channels are passive: the runtimes ({!Firing} and its schedulers)
    own every push and pop site, so they observe the two occupancy
    transitions that can make an idle node runnable again — a push
    onto an empty channel, a pop from a full one — themselves, from
    {!length} and {!is_full}. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : t -> int
val length : t -> int
val is_full : t -> bool
val is_empty : t -> bool

val push : t -> Message.t -> bool
(** [false] (and no effect) when full. Enforces sequence-number
    monotonicity: @raise Invalid_argument if the message's sequence
    number is not greater than the last pushed one. *)

val peek : t -> Message.t option
val pop : t -> Message.t option

val peek_seq : t -> int
(** Sequence number of the head message, without boxing the message in
    an option. Guard with {!is_empty} (an unboxed check) on the hot
    path. @raise Invalid_argument on an empty channel. *)

val peek_exn : t -> Message.t
(** Head message without option boxing.
    @raise Invalid_argument on an empty channel. *)

val pop_exn : t -> Message.t
(** Allocation-free {!pop}: returns the head message directly.
    @raise Invalid_argument on an empty channel. *)

val total_pushed : t -> int
val dummies_pushed : t -> int
val data_pushed : t -> int

val high_watermark : t -> int
(** Peak buffer occupancy over the channel's lifetime (0 for a fresh
    channel; never exceeds {!capacity}). The event-stream metrics
    ({!Fstream_obs.Metrics}) reconstruct the same quantity from
    [Push]/[Pop] events; this counter is the engine-side ground
    truth. *)
