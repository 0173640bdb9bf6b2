(** Buffer sizing: the dual of interval computation.

    The interval formulas are homogeneous of degree one in the buffer
    capacities: every interval is a min of (ratios of) sums of
    capacities, so scaling all buffers by [c] scales every finite
    interval by exactly [c] (a property the test suite checks against
    the algorithms directly). That gives a closed form for the natural
    design question the paper's future work gestures at — "how big must
    my buffers be so that dummy traffic stays below a target rate?":
    the smallest uniform scale factor is the target interval divided by
    the tightest computed interval, rounded up. *)

open Fstream_graph

val min_uniform_scale :
  Graph.t -> Compiler.algorithm -> target:int -> (int, string) result
(** [min_uniform_scale g algo ~target] is the least integer [c >= 1]
    such that after multiplying every buffer capacity by [c], every
    finite dummy interval of [algo] is at least [target] — i.e. no
    channel ever needs a dummy more often than every [target] sequence
    numbers. Errors when the plan fails or the graph has no finite
    intervals (no cycles: any sizing works, reported as [Ok 1]). *)

val scale_of_intervals :
  Interval.t array -> target:int -> (int, string) result
(** The arithmetic of {!min_uniform_scale} on a table already computed:
    the least integer [c >= 1] such that [c] times the tightest finite
    interval is at least [target]; [Ok 1] when no interval is finite.
    Errors when [target < 1] or [target > Graph.max_total_cap] (no
    interval can reach it). *)

val scale_caps : Graph.t -> int -> (Graph.t, string) result
(** Multiply every buffer capacity by a positive factor; [Error] when
    the scaled capacities would sum past {!Graph.max_total_cap}.
    @raise Invalid_argument if the factor is below 1. *)
