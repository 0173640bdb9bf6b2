open Fstream_graph
module Firing = Fstream_runtime.Firing
module Report = Fstream_runtime.Report
module Run = Fstream_runtime.Run
module Worklist = Fstream_runtime.Worklist

(* The interface describes shards, budget, quota and tickets; this
   comment records the invariants the implementation hangs off.

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
   holds two shard locks at once; the sink and idle locks are leaves.

   Tickets: [live] counts queued-plus-running shards, and every wake is
   made by a running shard of the same instance, which holds a ticket,
   so [live] reaching zero is permanent quiescence. An instance's
   setup-time state is published to the workers by the
   sequentially-consistent write of the pool's instance array; its
   report is assembled by the finalizing worker, whose last-ticket
   decrement is ordered after every other worker's release of the same
   atomic. *)

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

(* Fair-share bound: consecutive claims one worker grants a single
   instance while another instance has queued work. *)
let quota = 4

module Pool = struct
  type inst = {
    iid : int;
    iq : int Atomic.t; (* queued shards of this instance; claim hint *)
    claim : int -> bool; (* claim and run a shard for a worker *)
  }

  type t = {
    nd : int;
    insts : inst array Atomic.t; (* live instances; CAS add/remove *)
    queued : int Atomic.t; (* queued shards, all instances *)
    idlers : int Atomic.t; (* workers inside the idle section *)
    idle_lock : Mutex.t;
    idle_cond : Condition.t;
    mutable stopping : bool; (* guarded by idle_lock *)
    mutable workers : unit Domain.t array;
    next_iid : int Atomic.t;
  }

  type job = {
    jlock : Mutex.t;
    jcond : Condition.t;
    mutable jres : (Report.t, exn) result option;
  }

  let domains t = t.nd

  (* Wake at most [k] idle workers — one per shard queued, never more
     than are napping; extra queued shards are picked up by the
     workers' own scans. The wakeup handshake pairs with the idle
     section's re-check of [queued]: both sides use
     sequentially-consistent atomics, so either the enqueuer sees the
     idler and signals, or the idler sees the new [queued] count
     (incremented before any signalling decision) and rescans — a
     wakeup cannot be lost. *)
  let signal_idlers t k =
    if Atomic.get t.idlers > 0 then begin
      Mutex.lock t.idle_lock;
      if k >= Atomic.get t.idlers then Condition.broadcast t.idle_cond
      else
        for _ = 1 to k do
          Condition.signal t.idle_cond
        done;
      Mutex.unlock t.idle_lock
    end

  (* Per-worker rotation state for the fair-share quota. [cursor]
     indexes the instance array snapshot (re-taken every pick, so a
     retire just shifts the rotation by one); [grants] counts
     consecutive grants to [last]. *)
  type wstate = { mutable cursor : int; mutable last : int; mutable grants : int }

  let pick t pw w =
    let insts = Atomic.get t.insts in
    let ni = Array.length insts in
    if ni = 0 then false
    else begin
      if pw.cursor >= ni then pw.cursor <- 0;
      (* quota exhausted and someone else is waiting: rotate away from
         the hot instance before scanning *)
      if ni > 1 && pw.grants >= quota then begin
        let rec waiting k =
          k < ni
          && ((let inst = insts.((pw.cursor + k) mod ni) in
               inst.iid <> pw.last && Atomic.get inst.iq > 0)
             || waiting (k + 1))
        in
        if waiting 0 then pw.cursor <- (pw.cursor + 1) mod ni;
        pw.grants <- 0
      end;
      let rec scan k =
        k < ni
        &&
        let idx = (pw.cursor + k) mod ni in
        let inst = insts.(idx) in
        if Atomic.get inst.iq > 0 && inst.claim w then begin
          if inst.iid = pw.last then pw.grants <- pw.grants + 1
          else begin
            pw.last <- inst.iid;
            pw.grants <- 1
          end;
          pw.cursor <- idx;
          true
        end
        else scan (k + 1)
      in
      scan 0
    end

  (* Idle protocol: a worker that finds nothing increments [idlers]
     and naps until an enqueue signals it or the pool stops. Instance
     completion is detected by the per-instance ticket count, not
     here. *)
  let worker t w () =
    let pw = { cursor = w; last = -1; grants = 0 } in
    let rec loop () =
      if pick t pw w then loop ()
      else begin
        Mutex.lock t.idle_lock;
        Atomic.incr t.idlers;
        let rec idle () =
          if t.stopping then ()
          else if Atomic.get t.queued > 0 then ()
          else begin
            Condition.wait t.idle_cond t.idle_lock;
            idle ()
          end
        in
        idle ();
        Atomic.decr t.idlers;
        let quit = t.stopping in
        Mutex.unlock t.idle_lock;
        if not quit then loop ()
      end
    in
    loop ()

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
        insts = Atomic.make [||];
        queued = Atomic.make 0;
        idlers = Atomic.make 0;
        idle_lock = Mutex.create ();
        idle_cond = Condition.create ();
        stopping = false;
        workers = [||];
        next_iid = Atomic.make 0;
      }
    in
    t.workers <- Array.init nd (fun w -> Domain.spawn (worker t w));
    t

  let shutdown t =
    Mutex.lock t.idle_lock;
    let first = not t.stopping in
    t.stopping <- true;
    Condition.broadcast t.idle_cond;
    Mutex.unlock t.idle_lock;
    if first then Array.iter Domain.join t.workers

  let submit t ?sink ~graph:g ~kernels ~inputs ~avoidance () =
    Mutex.lock t.idle_lock;
    let stopped = t.stopping in
    Mutex.unlock t.idle_lock;
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
    let iq = Atomic.make 0 in (* shards queued in this instance *)
    let live = Atomic.make 0 in (* tickets: queued + running shards *)
    let halt = Atomic.make false in
    let failure = Atomic.make None in
    let job =
      { jlock = Mutex.create (); jcond = Condition.create (); jres = None }
    in
    (* Wake local rank [r] of [sh] from another shard. Caller holds
       [sh.lock]. An Idle -> Queued transition mints a ticket. *)
    let post sh r =
      Worklist.arm sh.inbox r;
      if not (Atomic.get sh.mail) then Atomic.set sh.mail true;
      if sh.state = Idle then begin
        sh.state <- Queued;
        Atomic.incr live;
        Atomic.incr iq;
        Atomic.incr t.queued;
        signal_idlers t 1
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
            let sh = shards.(shard_of.(dst)) in
            if shard_of.(dst) = shard_of.(v) then Worklist.arm sh.wl local.(dst)
            else post sh local.(dst));
        freed =
          (fun v producers k ->
            for j = 0 to k - 1 do
              let p = producers.(j) in
              let sh = shards.(shard_of.(p)) in
              if shard_of.(p) = shard_of.(v) then
                Worklist.arm_next sh.wl local.(p)
              else begin
                Mutex.lock sh.lock;
                post sh local.(p);
                Mutex.unlock sh.lock
              end
            done);
      }
    in
    let fr =
      Firing.create ~who:"Parallel_engine" ?sink ~hooks ~graph:g ~kernels
        ~inputs ~avoidance ()
    in
    let iid = Atomic.fetch_and_add t.next_iid 1 in
    (* Finalize when the last ticket is released: unlist the instance,
       assemble the report from the channels' ground-truth counters and
       hand it to the job. Every queued shard holds a ticket, so none
       is queued by then. *)
    let finalize () =
      (let rec unlist () =
         let cur = Atomic.get t.insts in
         let nxt =
           Array.of_seq
             (Seq.filter (fun (i : inst) -> i.iid <> iid) (Array.to_seq cur))
         in
         if not (Atomic.compare_and_set t.insts cur nxt) then unlist ()
       in
       unlist ());
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
    (* A claim of [sh]: whole passes until the worklist is empty or the
       budget is spent, with kernel-exception containment (the instance
       halts and drains, the pool lives on). Then, under the lock, it
       absorbs the wakes that raced with the last pass: with work and
       budget left it keeps going; with work but no budget it re-queues
       the shard, keeping its ticket; otherwise it goes idle and
       releases the ticket, finalizing on the last one. *)
    let rec serve sh left =
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
        serve sh left
      end
      else begin
        sh.state <- Queued;
        Atomic.incr iq;
        Atomic.incr t.queued;
        Mutex.unlock sh.lock;
        signal_idlers t 1
      end
    in
    (* Worker side of the instance: claim a queued shard, starting from
       the worker's own index, and serve it. *)
    let claim w =
      let rec scan k =
        k < nshards
        &&
        let sh = shards.((w + k) mod nshards) in
        Mutex.lock sh.lock;
        if sh.state = Queued then begin
          sh.state <- Running;
          Atomic.decr iq;
          Atomic.decr t.queued;
          Mutex.unlock sh.lock;
          serve sh budget;
          true
        end
        else begin
          Mutex.unlock sh.lock;
          scan (k + 1)
        end
      in
      scan 0
    in
    (* Seed: the sources are armed from the start. The instance is
       still private (no locks needed); the pool learns about the
       queued shards only after the instance array CAS publishes
       everything. *)
    Array.iter
      (fun sh ->
        Array.iteri
          (fun r v ->
            if Graph.in_degree g v = 0 then begin
              Worklist.arm sh.wl r;
              sh.state <- Queued
            end)
          sh.members)
      shards;
    let seeded =
      Array.fold_left (fun k sh -> if sh.state = Queued then k + 1 else k) 0
        shards
    in
    Atomic.set live seeded;
    if seeded = 0 then
      (* no sources: nothing can ever run, report on the spot *)
      finalize ()
    else begin
      let inst = { iid; iq; claim } in
      let rec publish () =
        let cur = Atomic.get t.insts in
        let nxt = Array.append cur [| inst |] in
        if not (Atomic.compare_and_set t.insts cur nxt) then publish ()
      in
      publish ();
      (* [iq] goes live only after [t.queued]: pickers gate on [iq], so
         no claim can decrement [t.queued] below zero before the adds
         land; the idle re-check sees [t.queued] and rescans *)
      ignore (Atomic.fetch_and_add t.queued seeded);
      ignore (Atomic.fetch_and_add iq seeded);
      signal_idlers t seeded
    end;
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
  Run.exec (Run.pool ?domains ?sink ~avoidance ()) ~graph ~kernels ~inputs ()

(* The Run facade dispatches [Pool] configs here; registration at
   module-initialization time (plus -linkall on this library) breaks
   the runtime -> parallel dependency cycle. *)
let () =
  Run.register_pool_impl
    (fun ~domains ~sink ~graph ~kernels ~inputs ~avoidance ->
      let pool = Pool.create ?domains () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          Pool.await
            (Pool.submit pool ?sink ~graph ~kernels ~inputs ~avoidance ())))
