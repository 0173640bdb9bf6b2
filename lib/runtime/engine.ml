open Fstream_graph
module Event = Fstream_obs.Event

type kernel = Firing.kernel

type avoidance = Firing.avoidance =
  | No_avoidance
  | Propagation of Fstream_core.Thresholds.t
  | Non_propagation of Fstream_core.Thresholds.t

(* Index of the lowest set bit of a non-zero word below [2^32]: the
   isolated bit times a de Bruijn constant puts a distinct 5-bit
   pattern in bits 27-31 (the product stays below [2^58], so OCaml's
   63-bit ints never wrap). *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]
[@@ocamlformat "disable"]

let[@inline] lowest_bit w =
  debruijn.((((w land -w) * 0x077CB531) lsr 27) land 31)

(* Set bit [r] of the worklist [words]; [bound] tracks the highest word
   a round must scan. Top-level and closed so it inlines into the wake
   hooks and the round loop. *)
let[@inline] arm words r bound =
  let w = r lsr 5 in
  words.(w) <- words.(w) lor (1 lsl (r land 31));
  if w > !bound then bound := w

let run ?max_rounds ?deadlock_dump ?sink ~graph:g ~kernels ~inputs ~avoidance
    () =
  let n = Graph.num_nodes g in
  let order = Topo.order_exn g in
  let rank = Array.make n 0 in
  Array.iteri (fun r v -> rank.(v) <- r) order;
  (* The worklist: one bit per node, indexed by topological rank, 32
     per word. A round scans it upward with a cursor and clears each
     bit it visits, so a bit set above the cursor is visited this
     round and one set at or below it waits for the next. A push onto
     an empty channel wakes its consumer, which lies later in
     topological order than the node being visited, so above the
     cursor; the producers whose full channels a node's pops drained
     lie earlier, behind it. [hi] bounds the words the current round
     must scan, [next_hi] those armed for the next one. *)
  let words = Array.make ((n + 31) lsr 5) 0 in
  let hi = ref (-1) and next_hi = ref (-1) in
  let hooks =
    {
      Firing.guard = None;
      woke = (fun _ dst -> arm words rank.(dst) hi);
      freed =
        (fun producers k ->
          for j = 0 to k - 1 do
            arm words rank.(producers.(j)) next_hi
          done);
    }
  in
  let fr =
    Firing.create ~who:"Engine" ?sink ~hooks ~graph:g ~kernels ~inputs
      ~avoidance ()
  in
  let obs = Firing.observed fr and ev = Firing.event fr in
  let nodes = Firing.nodes fr in
  (* A visit retries pending sends and dummy slots, then fires at most
     once. *)
  let visit v =
    let s = nodes.(v) in
    let progress =
      if s.pend_len = 0 && s.slots = 0 then false else Firing.flush fr v s
    in
    if s.pend_len = 0 then Firing.fire fr v s || progress
    else begin
      if obs then
        ev (Event.Blocked { node = v; edge = s.pend_eid.(s.pend_head) });
      progress
    end
  in
  let m = Graph.num_edges g in
  let default_budget = ((inputs + 2) * ((2 * m) + n + 2) * 2) + 64 in
  let budget = Option.value max_rounds ~default:default_budget in
  let rounds = ref 0 in
  let outcome = ref None in
  let wedge = ref None in
  (* A round visits the armed nodes in topological order. Visiting
     every node instead (the test-side sweep) performs the same state
     transitions, so the {!Report.t} — round count and wedge snapshot
     included — is the same: a node is left unarmed only when its last
     visit made no progress, and that leaves its state unchanged, so it
     stays unable to progress until a wake —
     - a push onto one of its empty inputs, which arms it for this
       round, where the sweep's visit still lies ahead;
     - a pop from one of its full outputs, which arms it for the next
       round, its visit in this one being past.
     A visit that made progress re-arms its node for the next round;
     when the node can do no more, that visit is a no-op.

     Round 1 would visit every node, but every channel starts empty,
     so a non-source node's first visit is a no-op that emits nothing:
     only the sources are armed. *)
  Array.iteri
    (fun r v -> if Graph.in_degree g v = 0 then arm words r hi)
    order;
  let round () =
    let progress = ref false in
    let wi = ref 0 and above = ref (-1) in
    while !wi <= !hi do
      let w = words.(!wi) land !above in
      if w = 0 then begin
        incr wi;
        above := -1
      end
      else begin
        let b = lowest_bit w in
        words.(!wi) <- words.(!wi) lxor (1 lsl b);
        above := -2 lsl b;
        let r = (!wi lsl 5) lor b in
        if visit order.(r) then begin
          progress := true;
          arm words r next_hi
        end
      end
    done;
    hi := !next_hi;
    next_hi := -1;
    !progress
  in
  while !outcome = None do
    incr rounds;
    if obs then ev (Event.Round_started { round = !rounds });
    if !rounds > budget then outcome := Some Report.Budget_exhausted
    else if not (round ()) then
      if Firing.drained fr then outcome := Some Report.Completed
      else begin
        outcome := Some Report.Deadlocked;
        if obs then ev (Event.Wedge { round = !rounds });
        wedge := Some (Firing.snapshot fr);
        Option.iter (fun ppf -> Firing.pp_state ppf fr) deadlock_dump
      end
  done;
  Firing.report fr (Option.get !outcome)
    (Report.Sequential { rounds = !rounds; wedge = !wedge })
