open Fstream_graph
module Event = Fstream_obs.Event

type kernel = Firing.kernel

type avoidance = Firing.avoidance =
  | No_avoidance
  | Propagation of Fstream_core.Thresholds.t
  | Non_propagation of Fstream_core.Thresholds.t

type scheduler = Sweep | Ready

let run ?(scheduler = Ready) ?(dense_below = 512) ?(batch = 1) ?max_rounds
    ?deadlock_dump ?sink ~graph:g ~kernels ~inputs ~avoidance () =
  if batch < 1 then invalid_arg "Engine.run: batch < 1";
  let n = Graph.num_nodes g in
  let order = Topo.order_exn g in
  (* Ready-scheduler worklist state, defined up front so the step's
     hooks below can report occupancy transitions to it directly: the
     step owns every push and pop site, so the engine wakes nodes
     itself with no per-channel callback. Without [ready] the step has
     no wake hooks at all, so the sweep scheduler pays one dead branch
     per push.

     Per-node scheduler state packs into one int: the topological rank
     in the low bits, membership flags for the current and next round
     in two high bits — one cache line touched per wake instead of
     three.

     Below [dense_below] nodes the worklist's heap and wake traffic
     costs more than the sweep's full pass over a graph that fits in
     cache (bench §C6's random-CS4 regression), so [Ready] executes
     the sweep loop there; the transition sequence — hence the report
     — is identical either way. *)
  let ready = scheduler = Ready && n >= dense_below in
  let cur_bit = 1 lsl 62 and next_bit = 1 lsl 61 in
  let rank_mask = next_bit - 1 in
  let rank_flags = Array.make n 0 in
  Array.iteri (fun i v -> rank_flags.(v) <- i) order;
  (* current round: binary min-heap over topo rank, deduplicated by
     the [cur_bit] flag; next round: an unordered preallocated stack,
     heapified by promotion at the round boundary *)
  let heap = Array.make (n + 1) 0 in
  let hlen = ref 0 in
  let heap_push r =
    incr hlen;
    heap.(!hlen) <- r;
    let i = ref !hlen in
    while !i > 1 && heap.(!i / 2) > heap.(!i) do
      let p = !i / 2 in
      let tmp = heap.(p) in
      heap.(p) <- heap.(!i);
      heap.(!i) <- tmp;
      i := p
    done
  in
  let heap_pop () =
    let top = heap.(1) in
    heap.(1) <- heap.(!hlen);
    decr hlen;
    let i = ref 1 in
    let continue = ref true in
    while !continue do
      let l = 2 * !i and r = (2 * !i) + 1 in
      let smallest = ref !i in
      if l <= !hlen && heap.(l) < heap.(!smallest) then smallest := l;
      if r <= !hlen && heap.(r) < heap.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = heap.(!smallest) in
        heap.(!smallest) <- heap.(!i);
        heap.(!i) <- tmp;
        i := !smallest
      end
    done;
    top
  in
  let next_buf = Array.make n 0 in
  let next_len = ref 0 in
  let wake_cur v =
    let rf = rank_flags.(v) in
    if rf land cur_bit = 0 then begin
      rank_flags.(v) <- rf lor cur_bit;
      heap_push (rf land rank_mask)
    end
  in
  let wake_next v =
    let rf = rank_flags.(v) in
    if rf land next_bit = 0 then begin
      rank_flags.(v) <- rf lor next_bit;
      next_buf.(!next_len) <- v;
      incr next_len
    end
  in
  (* The engine's side of the shared step: no locks; under the
     worklist, a landed push onto an empty channel wakes the consumer
     into the current round, and pops that freed a full channel wake
     their producers into the next one.

     A visit retries pending sends and dummy slots, then fires while
     the node stays runnable, up to [batch] firings (a firing "sticks"
     when its pops freed slots and its pushes all landed — pending
     empty again). Both schedulers execute exactly this; they differ
     only in which nodes they bother to visit. With [batch = 1] (the
     default) a visit is a single fire+flush, the round structure of
     the unbatched engine. *)
  let hooks =
    {
      Firing.guard = None;
      woke = (if ready then Some (fun _ dst -> wake_cur dst) else None);
      freed =
        (if ready then
           Some
             (fun producers k ->
               for j = 0 to k - 1 do
                 wake_next producers.(j)
               done)
         else None);
    }
  in
  let fr =
    Firing.create ~who:"Engine" ?sink ~hooks ~graph:g ~kernels ~inputs
      ~avoidance ()
  in
  let obs = Firing.observed fr and ev = Firing.event fr in
  let nodes = Firing.nodes fr in
  let rec fire_loop v s budget fired =
    if Firing.fire fr v s then
      if budget <= 1 || s.Firing.pend_len <> 0 then true
      else fire_loop v s (budget - 1) true
    else fired
  in
  let visit v =
    let s = nodes.(v) in
    let progress =
      if s.pend_len = 0 && s.slots = 0 then false else Firing.flush fr v s
    in
    if s.pend_len = 0 then fire_loop v s batch false || progress
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
  (* The sweep scheduler visits every node every round. The ready
     scheduler visits only woken nodes, yet a skipped node's visit
     would have been a no-op (its pending sends and dummy slots sit on
     full channels, and it cannot fire), so both schedulers perform the
     same state transitions in the same order and the resulting
     {!Report.t} — including the round count and the wedge snapshot —
     is bit-identical.

     Wake discipline (matching the sweep's topological round order):
     - a push onto an empty channel may make the consumer runnable; the
       consumer sits later in topological order than the producer being
       visited, so it joins the *current* round, exactly where the
       sweep would reach it;
     - a pop from a full channel may unblock the producer's pending
       sends or queued dummy slot; the producer sits earlier in
       topological order, already visited this round, so it joins the
       *next* round — again just like the sweep;
     - a node that remains runnable on its own (an unfinished source,
       or a node whose inputs are all still non-empty) re-arms itself
       for the next round. *)
  let sweep_round () =
    let progress = ref false in
    Array.iter (fun v -> if visit v then progress := true) order;
    !progress
  in
  let ready_round =
    if not ready then sweep_round
    else begin
      (* Round 1 is the sweep's full pass, but every channel starts
         empty, so a non-source node's first visit is a guaranteed
         no-op (it cannot fire, has nothing pending, and emits no
         event): seeding only the sources executes the identical
         transition sequence. Nodes woken by the sources' pushes join
         the current round exactly where the sweep would visit them. *)
      Array.iter (fun v -> if Graph.in_degree g v = 0 then wake_cur v) order;
      (* A visited node re-arms itself only when it can fire again with
         no outside event ({!Firing.self_arming}). Blocked nodes
         (non-empty pending, or a dummy slot waiting out a full
         channel) are woken by the freed-slot transition instead. *)
      fun () ->
        let progress = ref false in
        while !hlen > 0 do
          let v = order.(heap_pop ()) in
          rank_flags.(v) <- rank_flags.(v) land lnot cur_bit;
          if visit v then progress := true;
          if Firing.self_arming fr v then wake_next v
        done;
        for k = 0 to !next_len - 1 do
          let v = next_buf.(k) in
          rank_flags.(v) <- rank_flags.(v) land lnot next_bit;
          wake_cur v
        done;
        next_len := 0;
        !progress
    end
  in
  while !outcome = None do
    incr rounds;
    if obs then ev (Event.Round_started { round = !rounds });
    if !rounds > budget then outcome := Some Report.Budget_exhausted
    else begin
      let progress = ready_round () in
      if not progress then
        if Firing.drained fr then outcome := Some Report.Completed
        else begin
          outcome := Some Report.Deadlocked;
          if obs then ev (Event.Wedge { round = !rounds });
          wedge := Some (Firing.snapshot fr);
          Option.iter (fun ppf -> Firing.pp_state ppf fr) deadlock_dump
        end
    end
  done;
  Firing.report fr (Option.get !outcome)
    (Report.Sequential { rounds = !rounds; wedge = !wedge })
