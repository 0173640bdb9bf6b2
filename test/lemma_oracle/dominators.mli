(** Dominator and postdominator trees on single-source DAGs.

    The paper's structural arguments (Lemma III.1 and the SP-ladder
    characterization) are phrased in terms of domination; the test
    suite checks those lemmas directly on generated graphs with this
    computation. *)

open Fstream_graph

val idoms : Graph.t -> Graph.node -> int array
(** [idoms g root] is the immediate-dominator array for paths from
    [root]: [idoms.(root) = root], [idoms.(v) = -1] for nodes unreachable
    from [root], and otherwise the unique closest strict dominator.
    Iterative Cooper–Harvey–Kennedy data-flow on a reverse post-order;
    [O(V * E)] worst case, near-linear on the graphs used here.
    @raise Invalid_argument if [g] is cyclic. *)

val ipostdoms : Graph.t -> Graph.node -> int array
(** [ipostdoms g sink] is [idoms] on the reversed graph rooted at
    [sink]: the immediate postdominator of every node that reaches
    [sink]. *)

val dominates : Graph.t -> Graph.node -> Graph.node -> Graph.node -> bool
(** [dominates g root a b]: every directed path from [root] to [b]
    passes through [a]. Requires [b] reachable from [root]. *)
