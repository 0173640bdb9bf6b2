(** CS4 DAGs: classification per Theorem V.7.

    A two-terminal DAG is CS4 — every undirected simple cycle has a
    single source and a single sink — iff it is a serial composition of
    blocks, each of which is an SP-DAG or an SP-ladder. [classify]
    decides the property constructively: it splits the graph into
    biconnected blocks along its articulation-point chain and recognizes
    each block, yielding the decomposition the interval algorithms of
    §VI consume. [is_cs4_brute] decides the same property directly from
    the cycle-structure definition by searching the undirected simple
    cycles (exponential); the test suite checks the two agree, which is
    the computational content of Theorem V.7. *)

open Fstream_graph
open Fstream_spdag

type block =
  | Sp_block of Sp_tree.t
  | Ladder_block of Ladder.t

type t = {
  source : Graph.node;
  sink : Graph.node;
  blocks : (Graph.node * Graph.node * block) list;
      (** [(block_source, block_sink, class)], in serial order *)
  block_ids : int list list;
      (** each block's edge ids, in the order of [blocks] *)
}

type failure =
  | Not_two_terminal
  | Bad_block of {
      block_source : Graph.node;
      block_sink : Graph.node;
      block_ids : int list;
          (** the block's edge ids, increasing, as [block_ids] keeps
              them for an accepted block: what {!block_witnesses}
              searches *)
      reason : string;  (** why the block is neither SP nor a ladder *)
    }

val classify : ?order:Graph.node array -> Graph.t -> (t, failure) result
(** [order], when given, must be [g]'s {!Topo.order} (a compile passes
    down the order its DAG check computed). *)

val is_cs4 : Graph.t -> bool
(** [Result.is_ok (classify g)]. *)

val is_cs4_brute : Graph.t -> bool
(** Definition-level check: two-terminal and every undirected simple
    cycle has exactly one source and one sink, decided by a whole-graph
    search for the first multi-source cycle ({!Cycles.search} with
    [~limit:1]). Exponential: the test oracle for {!classify}.
    @raise Invalid_argument if the search's default budget runs out
    before it decides. *)

val block_witnesses :
  ?max_cycles:int ->
  Graph.t ->
  block_ids:int list ->
  limit:int ->
  Cycles.t list * bool
(** The first [limit] multi-source cycles of the block whose edge ids a
    [Bad_block] carries — a block that holds at least one — in
    {!Cycles.enumerate} order, searched over those edges only
    ({!Cycles.search}, whose budget and flag it returns). The search
    stops at the [limit]-th, so its cost depends on that block alone,
    never on the cycles of the rest of the graph. Lint, repair and
    [streamcheck classify] search the block {!classify} rejected this
    way, and none of them splits the graph into blocks again. *)

val pp_failure : Format.formatter -> failure -> unit
