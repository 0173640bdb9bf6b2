(** The worklist of a topologically ordered scheduler: a bitset over
    topological rank, scanned upward by a cursor in passes. A pass
    visits the armed ranks in increasing order, clearing each bit it
    visits, so where a bit is set relative to the cursor decides the
    pass that visits it. {!Engine.run} runs one worklist over the whole
    graph, one pass per round; the pool runs one per shard. *)

type t

val create : int -> t
(** An empty worklist over ranks [0 .. n - 1]. *)

val arm : t -> int -> unit
(** Set the bit of a rank above the cursor, for this pass (a push onto
    an empty channel wakes its consumer, which lies later in
    topological order than the node being visited); between passes,
    of any rank, for the next. *)

val arm_next : t -> int -> unit
(** Set the bit of a rank at or below the cursor, for the next pass
    (the producers whose full channels a node's pops drained lie
    behind it). *)

val is_empty : t -> bool
(** Nothing is armed. Meaningful between passes. *)

val hooks : t -> int array -> Firing.hooks
(** The {!Firing.hooks} of a single-threaded run over this worklist,
    [rank] giving each node's rank: a push onto an empty channel arms
    its consumer with {!arm}, a pop that drains a full channel its
    producer with {!arm_next}. *)

val absorb : t -> t -> unit
(** [absorb t inbox] arms in [t] every rank set in [inbox] and empties
    [inbox]. Between passes of [t] only. *)

val pass : t -> (int -> bool) -> int
(** Visit every armed rank in increasing order, ranks armed above the
    cursor during the pass included, and re-arm for the next pass each
    one whose visit returned [true]. Returns the number of visits. If
    [visit] raises, the worklist is left mid-pass. *)
