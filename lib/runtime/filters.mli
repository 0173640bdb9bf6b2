(** Kernel combinators: the filtering behaviours used by the examples,
    tests and benchmarks.

    All randomized kernels are driven by an explicit [Random.State.t]
    so that every execution is reproducible. Kernels receive the node's
    out-edge ids once at construction (from {!for_graph}) and decide
    per sequence number which of them receive data.

    Each factory does its set-up once and returns a kernel that takes
    exactly [~seq ~got]: a firing is one direct call, and a kernel that
    keeps every edge returns the [int list] it was built with rather
    than a copy. *)

open Fstream_graph

val passthrough : int list -> Engine.kernel
(** Data on every listed out-edge whenever any data arrives. *)

val drop_all : int list -> Engine.kernel
(** Never emits — the most aggressive filter. *)

val bernoulli : Random.State.t -> keep:float -> int list -> Engine.kernel
(** Each out-edge independently receives data with probability [keep]
    per fired sequence number: the edge is kept when
    [Random.State.float rng 1.0 < keep], drawn once per out-edge and
    firing in list order. The decisions and the draws are exactly
    those, but no float is boxed. *)

val periodic : keep_every:int -> int list -> Engine.kernel
(** Data on every [keep_every]-th sequence number (phase 0), filtered
    otherwise — a deterministic thinning filter. *)

val route_one : Random.State.t -> int list -> Engine.kernel
(** Sends each input to exactly one out-edge, chosen uniformly — the
    data-dependent switch of the Fig. 1 discussion. *)

val block_edge : int -> int list -> Engine.kernel
(** Passes through on every out-edge except the given one, which is
    always filtered — the adversarial behaviour that triggers the
    Fig. 2 deadlock. *)

val for_graph :
  Graph.t -> (Graph.node -> int list -> Engine.kernel) -> Graph.node -> Engine.kernel
(** [for_graph g choose] builds the [kernels] argument of
    {!Engine.run}: [choose v out_ids] picks the kernel for node [v]
    given its out-edge ids. *)
