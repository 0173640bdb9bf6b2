(** Messages on streaming channels (§II.A).

    Every message carries the monotonically increasing sequence number
    of the external input it derives from. A [Dummy] is the §II.B
    deadlock-avoidance message: content-free, carrying the sequence
    number of an input the sender filtered, so the receiver can advance
    past it. [Eos] is a runtime-level end-of-stream marker (sequence
    number [max_int]) letting a finite execution drain — it is not part
    of the paper's model, which considers unbounded streams.

    A message is an immediate int coding its sequence number and its
    kind; nothing else travels. Data carries no payload: what a node
    learns from a data message is its sequence number and the channel
    it arrived on, which is all a kernel is given. Buffers of messages
    are plain [int array]s, so storing one is a single word write with
    no write barrier. *)

type t = private int

type kind = Fstream_obs.Event.payload = Data | Dummy | Eos

val max_seq : int
(** Largest sequence number a data or dummy message can code
    ([max_int / 2 - 1]); sequence numbers may also be negative, down to
    [min_int / 2]. *)

val data : seq:int -> t
val dummy : seq:int -> t
val eos : t

val seq : t -> int
(** The sequence number; [max_int] for {!eos}. *)

val kind : t -> kind
val is_data : t -> bool
val is_dummy : t -> bool

val pp : Format.formatter -> t -> unit
(** [#seq:seq] for data (the sequence number doubles as the printed
    value), [#seq:dummy], [#eos]. *)
