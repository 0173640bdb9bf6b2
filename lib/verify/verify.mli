(** Exhaustive deadlock checking for small topologies.

    The randomized simulations (bench S1) sample filtering behaviours;
    this module decides them. For a given graph, avoidance wrapper and
    bounded input count it explores the {e entire} transition system —
    every interleaving of node firings and sends, and at every firing
    {e every} subset of output channels the kernel could choose to emit
    on — and reports either that no reachable state is wedged
    ([Safe], a machine-checked proof of deadlock freedom for that
    instance) or a concrete trace of scheduler steps and filtering
    choices that wedges the system ([Deadlocks]).

    The semantics is the node step of {!Fstream_runtime.Firing}, the
    one both runtimes execute: firing on the minimum head sequence
    number, blocking data sends with per-channel FIFO, non-blocking
    coalescing dummy slots, sequence-number gap thresholds, dummy
    forwarding under [Propagation], and end-of-stream draining. Only
    the avoidance decoding ({!Fstream_runtime.Firing.decode}) is
    shared; the step itself is restated here on immutable states, on
    purpose, so that this module stays an independent oracle: a
    property test checks the runtime against it ([Safe] implies the
    engine completes).

    State counts grow quickly — this is for graphs of a handful of
    nodes with unit-ish buffers, which is exactly where the interesting
    counterexamples live (Fig. 2 is three nodes; the budget-erosion
    counterexample to the paper-literal Propagation table is five). *)

open Fstream_graph

type result =
  | Safe of { states : int }  (** every reachable state makes progress *)
  | Deadlocks of { states : int; trace : string list }
      (** a wedged state is reachable; [trace] lists the actions from
          the initial state, including each firing's filtering choice *)
  | Out_of_budget of { states : int }

val check :
  ?max_states:int ->
  ?strategy:[ `Bfs | `Dfs ] ->
  graph:Graph.t ->
  avoidance:Fstream_runtime.Engine.avoidance ->
  inputs:int ->
  unit ->
  result
(** [max_states] defaults to 1_000_000. The search stops at the first
    state past it, so [Out_of_budget] always reports
    [max_states + 1] states. [`Bfs] (default) yields
    shortest counterexample traces; [`Dfs] finds deep wedges with far
    fewer expansions. *)

val pp_result : Format.formatter -> result -> unit
