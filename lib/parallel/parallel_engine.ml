open Fstream_graph
module Firing = Fstream_runtime.Firing
module Report = Fstream_runtime.Report
module Worklist = Fstream_runtime.Worklist

(* The interface describes shards, the run queue, the budget and
   tickets; this comment records the invariants the implementation
   hangs off.

   Ownership: a shard is claimed by at most one worker at a time (its
   [state], changed only under its lock, is [Running] exactly while
   claimed), and only that owner steps its nodes or touches its
   worklist. The lock's hand-over at claim and finish orders
   consecutive owners, which makes every plain field of the shard's
   nodes (pending rings, dummy slots, stamps, scratch), its worklist
   and the channels inside it safe to keep unsynchronized.

   A cross channel (ends in different shards) is touched only under
   the consumer's shard lock: the step's {!Firing.hooks} take it for a
   push (whose [Push] event is narrated under it, so it precedes the
   consumer's [Pop]) and for the consumer's head scan and pops. A wake
   inside a shard sets a worklist bit; a wake across shards sets an
   [inbox] bit under the target's lock and raises its [mail] flag. The
   owner absorbs the inbox between passes and re-checks it under the
   lock before going idle, so no wake is lost. Pops that free a remote
   producer wake it after the consumer's lock is released, so no path
   holds two shard locks at once.

   Run queue: a shard's claim is in the pool's queue, or popped and
   not yet claimed, exactly while its state is [Queued]. Only an
   Idle -> Queued transition and a claim that re-queues its shard push
   it, both under the shard's lock, so no shard is queued twice. The
   queue lock is a leaf (taken under a shard lock, never the other way
   round), as is the sink's; a worker releases it before it claims the
   shard it popped.

   Tickets: [live] counts queued-plus-running shards, and every wake is
   made by a running shard of the same instance, which holds a ticket,
   so [live] reaching zero is permanent quiescence. An instance's
   setup-time state is published to the workers by the queue lock its
   seeded shards are pushed under; its report is assembled by the
   finalizing worker, whose last-ticket decrement is ordered after
   every other worker's release of the same atomic. *)

(* Scheduling state of one shard, changed only under its lock. *)
type state = Idle | Queued | Running

type shard = {
  lock : Mutex.t;
  mutable state : state;
  members : int array; (* local rank -> node, in topological order *)
  wl : Worklist.t; (* local ranks; owner only *)
  inbox : Worklist.t; (* wakes from other shards; under [lock] *)
  mail : bool Atomic.t; (* [inbox] may be non-empty *)
}

let default_domains () =
  let d = try Domain.recommended_domain_count () with _ -> 2 in
  max 1 (min 8 (d - 1))

(* Visits one claim of a shard may spend before it re-queues itself,
   checked only between whole passes: a pass cut short would restart
   at the bottom of the shard and starve its top. *)
let budget = 1024

module Pool = struct
  type t = {
    nd : int;
    lock : Mutex.t; (* guards [runq] and [stopping]; a leaf *)
    nonempty : Condition.t;
    runq : (unit -> unit) Queue.t; (* claims of queued shards, FIFO *)
    mutable stopping : bool;
    mutable workers : unit Domain.t array;
  }

  type job = {
    jlock : Mutex.t;
    jcond : Condition.t;
    mutable jres : (Report.t, exn) result option;
  }

  let domains t = t.nd

  (* Push the claim of a shard that just became [Queued]; the caller
     holds that shard's lock (or it is not yet published). *)
  let enqueue t claim =
    Mutex.lock t.lock;
    Queue.push claim t.runq;
    Condition.signal t.nonempty;
    Mutex.unlock t.lock

  (* A worker runs the claim at the front of the queue, or naps until
     one is pushed. Once the pool is stopping it empties the queue and
     quits. Instance completion is detected by the per-instance ticket
     count, not here. *)
  let rec worker t () =
    Mutex.lock t.lock;
    while Queue.is_empty t.runq && not t.stopping do
      Condition.wait t.nonempty t.lock
    done;
    let claim = Queue.take_opt t.runq in
    Mutex.unlock t.lock;
    match claim with
    | None -> ()
    | Some claim ->
      claim ();
      worker t ()

  let create ?domains () =
    let nd =
      match domains with
      | None -> default_domains ()
      | Some d ->
        if d < 1 || d > 126 then
          invalid_arg "Parallel_engine.Pool.create: domains out of range";
        d
    in
    let t =
      {
        nd;
        lock = Mutex.create ();
        nonempty = Condition.create ();
        runq = Queue.create ();
        stopping = false;
        workers = [||];
      }
    in
    t.workers <- Array.init nd (fun _ -> Domain.spawn (worker t));
    t

  let shutdown t =
    Mutex.lock t.lock;
    let first = not t.stopping in
    t.stopping <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.lock;
    if first then Array.iter Domain.join t.workers

  let submit t ?sink ~graph:g ~kernels ~inputs ~avoidance () =
    Mutex.lock t.lock;
    let stopped = t.stopping in
    Mutex.unlock t.lock;
    if stopped then
      invalid_arg "Parallel_engine.Pool.submit: pool is shut down";
    let n = Graph.num_nodes g in
    let order = Topo.order_exn g in
    (* contiguous rank ranges: most of a pipeline's or a chain's edges
       stay inside one shard and need no lock *)
    let nshards = max 1 (min t.nd n) in
    let bound i = i * n / nshards in
    let shard_of = Array.make n 0 and local = Array.make n 0 in
    let shards =
      Array.init nshards (fun i ->
          let members = Array.sub order (bound i) (bound (i + 1) - bound i) in
          Array.iteri
            (fun r v ->
              shard_of.(v) <- i;
              local.(v) <- r)
            members;
          let size = Array.length members in
          {
            lock = Mutex.create ();
            state = Idle;
            members;
            wl = Worklist.create size;
            inbox = Worklist.create size;
            mail = Atomic.make false;
          })
    in
    (* instance coordination *)
    let live = Atomic.make 0 in (* tickets: queued + running shards *)
    let halt = Atomic.make false in
    let failure = Atomic.make None in
    let job =
      { jlock = Mutex.create (); jcond = Condition.create (); jres = None }
    in
    (* [claims.(i)] claims and serves shard [i]; filled in below, before
       the first push *)
    let claims = Array.make nshards ignore in
    (* Wake local rank [r] of shard [i] from another shard. Caller holds
       the shard's lock. An Idle -> Queued transition mints a ticket. *)
    let post i r =
      let sh = shards.(i) in
      Worklist.arm sh.inbox r;
      if not (Atomic.get sh.mail) then Atomic.set sh.mail true;
      if sh.state = Idle then begin
        sh.state <- Queued;
        Atomic.incr live;
        enqueue t claims.(i)
      end
    in
    (* The pool's side of the shared step, under the discipline above.
       A push wakes its consumer, a pop that drains a full channel its
       producer, each where the worklist puts it ({!Worklist}). *)
    let hooks =
      {
        Firing.guard = Some (fun v -> shards.(shard_of.(v)).lock);
        woke =
          (fun v dst ->
            let i = shard_of.(dst) in
            if i = shard_of.(v) then Worklist.arm shards.(i).wl local.(dst)
            else post i local.(dst));
        freed =
          (fun v producers k ->
            for j = 0 to k - 1 do
              let p = producers.(j) in
              let i = shard_of.(p) in
              let sh = shards.(i) in
              if i = shard_of.(v) then Worklist.arm_next sh.wl local.(p)
              else begin
                Mutex.lock sh.lock;
                post i local.(p);
                Mutex.unlock sh.lock
              end
            done);
      }
    in
    let fr =
      Firing.create ~who:"Parallel_engine" ?sink ~hooks ~graph:g ~kernels
        ~inputs ~avoidance ()
    in
    (* Finalize when the last ticket is released: assemble the report
       from the channels' ground-truth counters and hand it to the job.
       Every queued shard holds a ticket, so none is queued by then. *)
    let finalize () =
      let res =
        match Atomic.get failure with
        | Some ex -> Error ex
        | None ->
          let outcome =
            if Firing.drained fr then Report.Completed else Report.Deadlocked
          in
          Ok (Firing.report fr outcome Report.Parallel)
      in
      Mutex.lock job.jlock;
      job.jres <- Some res;
      Condition.broadcast job.jcond;
      Mutex.unlock job.jlock
    in
    let absorb_locked sh =
      Atomic.set sh.mail false;
      Worklist.absorb sh.wl sh.inbox
    in
    (* A claim of shard [i]: whole passes until the worklist is empty or
       the budget is spent, with kernel-exception containment (the
       instance halts and drains, the pool lives on). Then, under the
       lock, it absorbs the wakes that raced with the last pass: with
       work and budget left it keeps going; with work but no budget it
       re-queues the shard at the back, keeping its ticket; otherwise it
       goes idle and releases the ticket, finalizing on the last one. *)
    let rec serve i left =
      let sh = shards.(i) in
      let visit = Firing.visitor fr sh.members in
      let rec passes left =
        if Atomic.get sh.mail then begin
          Mutex.lock sh.lock;
          absorb_locked sh;
          Mutex.unlock sh.lock
        end;
        if left <= 0 || Worklist.is_empty sh.wl || Atomic.get halt then left
        else passes (left - Worklist.pass sh.wl visit)
      in
      let left =
        try passes left
        with ex ->
          ignore (Atomic.compare_and_set failure None (Some ex));
          Atomic.set halt true;
          0
      in
      Mutex.lock sh.lock;
      if Atomic.get sh.mail then absorb_locked sh;
      if Atomic.get halt || Worklist.is_empty sh.wl then begin
        sh.state <- Idle;
        Mutex.unlock sh.lock;
        if Atomic.fetch_and_add live (-1) = 1 then finalize ()
      end
      else if left > 0 then begin
        Mutex.unlock sh.lock;
        serve i left
      end
      else begin
        sh.state <- Queued;
        enqueue t claims.(i);
        Mutex.unlock sh.lock
      end
    in
    Array.iteri
      (fun i (sh : shard) ->
        claims.(i) <-
          (fun () ->
            Mutex.lock sh.lock;
            sh.state <- Running;
            Mutex.unlock sh.lock;
            serve i budget))
      shards;
    (* Seed: the sources are armed from the start. The instance is
       still private (no locks needed) until its first claim is
       pushed, and every seeded shard holds its ticket before that. *)
    let seeded =
      List.filter
        (fun i ->
          let sh = shards.(i) in
          Array.iteri
            (fun r v -> if Graph.in_degree g v = 0 then Worklist.arm sh.wl r)
            sh.members;
          if Worklist.is_empty sh.wl then false
          else begin
            sh.state <- Queued;
            true
          end)
        (List.init nshards Fun.id)
    in
    Atomic.set live (List.length seeded);
    if seeded = [] then
      (* no sources: nothing can ever run, report on the spot *)
      finalize ()
    else List.iter (fun i -> enqueue t claims.(i)) seeded;
    job

  let await job =
    Mutex.lock job.jlock;
    let rec wait () =
      match job.jres with
      | Some res -> res
      | None ->
        Condition.wait job.jcond job.jlock;
        wait ()
    in
    let res = wait () in
    Mutex.unlock job.jlock;
    match res with Ok r -> r | Error ex -> raise ex
end

let run ?domains ?sink ~graph ~kernels ~inputs ~avoidance () =
  let pool = Pool.create ?domains () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Pool.await (Pool.submit pool ?sink ~graph ~kernels ~inputs ~avoidance ()))
