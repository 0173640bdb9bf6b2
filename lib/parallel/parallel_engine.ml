open Fstream_graph
module Channel = Fstream_runtime.Channel
module Firing = Fstream_runtime.Firing
module Report = Fstream_runtime.Report
module Run = Fstream_runtime.Run
module Event = Fstream_obs.Event

(* Sharded domain-pool runtime: the interface describes the shards,
   the stealing and the fair-share quota; this comment records the
   invariants the implementation hangs off. Each node is a lightweight
   task running the shared {!Firing} step.

   Locking discipline — the single invariant everything hangs off:

     every operation on channel [e] happens under the lock of
     [shard (dst e)] (shards, locks and channels are per instance).

   The step's {!Firing.hooks} carry it out. A node's in-edges all
   terminate at the node, so its firing decision (all inputs
   non-empty, min head sequence, pops) needs exactly one lock: its own
   shard's. A push takes the consumer's shard lock, and narrates the
   [Push] under it, so the event precedes the consumer's [Pop]. No
   code path ever holds two shard locks at once: pops that free a full
   channel collect the producer node ids and wake them after the
   consumer's lock is released. The event sink and the pool's idle
   condition variable have their own locks, acquired only as leaves.

   A node never blocks a worker: sends that find a full channel go to
   the node's pending ring (the sequential engine's model) and the node
   simply drops out of the runnable set until a pop on the jammed
   channel wakes it. With that, pool-level scheduling can never wedge
   on workers < nodes, and per-instance completion is an exact ticket
   count instead of a wall-clock heuristic: [live] counts the
   instance's queued-plus-running tasks (a task keeps its ticket while
   it re-queues itself or carries a missed wake, and every wake is
   performed by a running task of the same instance, which still holds
   its own ticket), so [live] reaching zero is permanent quiescence —
   nothing runnable, no kernel in flight, and nothing that could ever
   make a node runnable again. The worker that releases the last
   ticket finalizes the instance: live nodes remaining at that point
   mean a genuine deadlock of the streaming computation itself. There
   is no timer: a kernel that computes for any length of time holds its
   ticket, so it can never be misreported as a deadlock.

   Consecutive executions of one node may land on different workers,
   but never overlap: the per-node [Queued]/[Running]/[Running_dirty]
   state machine (mutated only under the node's shard lock) guarantees
   mutual exclusion, and the lock hand-over gives the happens-before
   edge that makes the node's plain fields (pending ring, dummy slots,
   stamps, scratch) safe to keep unsynchronized. An instance's plain
   setup-time state is published to the workers by the
   sequentially-consistent write of the pool's instance array; its
   report is assembled by the finalizing worker, whose last-ticket
   decrement is ordered after every other worker's release of the same
   atomic. *)

(* Scheduling state of one node, mutated only under its shard's lock.
   [Running_dirty] records a wake that arrived while the task was
   executing, so the finishing worker re-queues it instead of losing
   the wakeup. *)
type sched = Idle | Queued | Running | Running_dirty

type shard = {
  lock : Mutex.t;
  queue : int array; (* ready ring, deduplicated via [sched] *)
  mutable q_head : int;
  mutable q_len : int;
  (* pad the record past 64 bytes (header + 8 fields = 72) so two
     shards never share a cache line: [q_head]/[q_len] are written
     under [lock] by whichever worker holds the shard, and false
     sharing between adjacent shards' counters showed up as pool
     jitter on the scaling bench (§P1) *)
  _pad0 : int;
  _pad1 : int;
  _pad2 : int;
  _pad3 : int;
}

let default_domains () =
  let d = try Domain.recommended_domain_count () with _ -> 2 in
  max 1 (min 8 (d - 1))

(* Consecutive firings of one node per task execution before it
   re-queues itself, trading scheduling overhead against fairness
   between the nodes of an instance. *)
let grain = 32

(* Fair-share bound: consecutive task grants one worker gives a single
   instance while another instance has queued work. *)
let quota = 4

module Pool = struct
  type inst = {
    iid : int;
    iq : int Atomic.t; (* queued tasks of this instance; claim hint *)
    claim : int -> int option; (* start shard -> claimed node *)
    exec : int -> unit; (* run a claimed node, finish, maybe finalize *)
  }

  type t = {
    nd : int;
    insts : inst array Atomic.t; (* live instances; CAS add/remove *)
    queued : int Atomic.t; (* tasks in shard queues, all instances *)
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

  (* Wake at most [k] idle workers — one per task made runnable, never
     more than are napping; extra runnable tasks are picked up by the
     workers' own scans. Signalling once per batch (instead of
     broadcasting per enqueue) is what keeps a firing that frees f
     producers from stampeding all [nd] workers f times. The wakeup
     handshake pairs with the idle section's re-check of [queued]:
     both sides use sequentially-consistent atomics, so either the
     enqueuer sees the idler and signals, or the idler sees the new
     [queued] count (incremented before any signalling decision) and
     rescans — a wakeup cannot be lost, however late the signal is
     batched. *)
  let signal_idlers t k =
    if k > 0 && Atomic.get t.idlers > 0 then begin
      Mutex.lock t.idle_lock;
      let k =
        let i = Atomic.get t.idlers in
        if k < i then k else i
      in
      if k >= t.nd then Condition.broadcast t.idle_cond
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
    if ni = 0 then None
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
        if k = ni then None
        else begin
          let idx = (pw.cursor + k) mod ni in
          let inst = insts.(idx) in
          if Atomic.get inst.iq <= 0 then scan (k + 1)
          else
            match inst.claim w with
            | Some v ->
              if inst.iid = pw.last then pw.grants <- pw.grants + 1
              else begin
                pw.last <- inst.iid;
                pw.grants <- 1
              end;
              pw.cursor <- idx;
              Some (inst, v)
            | None -> scan (k + 1)
        end
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
      match pick t pw w with
      | Some (inst, v) ->
        inst.exec v;
        loop ()
      | None ->
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
    let state = Array.make n Idle in
    (* per node: tasks its current firing made runnable, not yet
       signalled *)
    let wakes = Array.make n 0 in
    (* contiguous block partition: neighbours tend to share a shard, so
       a pipeline hop's pop and push often reuse the lock the worker
       already touched; work-stealing evens out any imbalance *)
    let nshards = t.nd in
    let shard_of = Array.init n (fun v -> v * nshards / n) in
    let shard_size = Array.make nshards 0 in
    Array.iter (fun s -> shard_size.(s) <- shard_size.(s) + 1) shard_of;
    let shards =
      Array.init nshards (fun i ->
          {
            lock = Mutex.create ();
            queue = Array.make (max shard_size.(i) 1) 0;
            q_head = 0;
            q_len = 0;
            _pad0 = 0;
            _pad1 = 0;
            _pad2 = 0;
            _pad3 = 0;
          })
    in
    (* instance coordination *)
    let iq = Atomic.make 0 in (* tasks sitting in this instance's queues *)
    let live = Atomic.make 0 in (* tickets: queued + running tasks *)
    let halt = Atomic.make false in
    let failure = Atomic.make None in
    let job =
      { jlock = Mutex.create (); jcond = Condition.create (); jres = None }
    in
    (* Append [v] to its shard [sh]'s ready ring. Caller holds [sh]'s
       lock, or owns the still-unpublished instance. *)
    let enqueue sh v =
      state.(v) <- Queued;
      let size = Array.length sh.queue in
      let tail = sh.q_head + sh.q_len in
      sh.queue.(if tail >= size then tail - size else tail) <- v;
      sh.q_len <- sh.q_len + 1
    in
    (* Make [v] runnable. Caller holds [sh] = [v]'s shard lock. Returns
       whether [v] was actually enqueued; signalling idle workers is
       the caller's job ({!signal_idlers}). An Idle -> Queued
       transition mints a live ticket. *)
    let wake_locked sh v =
      match state.(v) with
      | Idle ->
        enqueue sh v;
        Atomic.incr live;
        Atomic.incr iq;
        Atomic.incr t.queued;
        true
      | Running ->
        state.(v) <- Running_dirty;
        false
      | Queued | Running_dirty -> false
    in
    let flush_wakes v =
      let k = wakes.(v) in
      if k > 0 then begin
        wakes.(v) <- 0;
        signal_idlers t k
      end
    in
    (* The pool's side of the shared step, under the locking
       discipline above. The consumers a firing's pushes made runnable
       are signalled in one batch once it ends ({!flush_wakes}), never
       under a shard lock; the producers its pops freed, in one batch
       before its kernel runs. *)
    let hooks =
      {
        Firing.guard = Some (fun v -> shards.(shard_of.(v)).lock);
        woke =
          (fun v dst ->
            if wake_locked shards.(shard_of.(dst)) dst then
              wakes.(v) <- wakes.(v) + 1);
        freed =
          (fun producers k ->
            let woken = ref 0 in
            for j = 0 to k - 1 do
              let p = producers.(j) in
              let sh = shards.(shard_of.(p)) in
              Mutex.lock sh.lock;
              if wake_locked sh p then incr woken;
              Mutex.unlock sh.lock
            done;
            signal_idlers t !woken);
      }
    in
    let fr =
      Firing.create ~who:"Parallel_engine" ?sink ~hooks ~graph:g ~kernels
        ~inputs ~avoidance ()
    in
    let obs = Firing.observed fr and ev = Firing.event fr in
    let nodes = Firing.nodes fr in
    let iid = Atomic.fetch_and_add t.next_iid 1 in
    (* One task execution: retry what was stuck, then fire while the
       node stays runnable, up to [grain] firings (then requeue, for
       fairness). A firing that leaves sends pending on a full channel
       opens a blocking episode — the node cannot fire again until they
       drain — so [Event.Blocked] is emitted exactly once per episode,
       when it opens. *)
    let rec fire_loop v s budget =
      if budget > 0 && (not (Atomic.get halt)) && Firing.fire fr v s then begin
        flush_wakes v;
        if s.Firing.pend_len = 0 then fire_loop v s (budget - 1)
        else if obs then
          ev (Event.Blocked { node = v; edge = s.pend_eid.(s.pend_head) })
      end
    in
    let run_node v =
      let s = nodes.(v) in
      ignore (Firing.flush fr v s);
      flush_wakes v;
      if s.pend_len = 0 then fire_loop v s grain
    in
    (* Finalize when the last ticket is released: unlist the instance,
       assemble the report from the channels' ground-truth counters and
       hand it to the job. Every queued task holds a ticket, so the
       instance's shard queues are empty by then. *)
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
    (* Post-execution bookkeeping: consume a missed wake
       ([Running_dirty]) or re-queue ourselves while still runnable
       (grain exhaustion, sources: {!Firing.self_arming}) — the task
       keeps its ticket; otherwise go idle and release it, finalizing
       on the last one. *)
    let finish_task v =
      let sh = shards.(shard_of.(v)) in
      Mutex.lock sh.lock;
      let rearm = (not (Atomic.get halt)) && Firing.self_arming fr v in
      if rearm || state.(v) = Running_dirty then begin
        enqueue sh v;
        Atomic.incr iq;
        Atomic.incr t.queued;
        Mutex.unlock sh.lock;
        signal_idlers t 1
      end
      else begin
        state.(v) <- Idle;
        Mutex.unlock sh.lock;
        if Atomic.fetch_and_add live (-1) = 1 then finalize ()
      end
    in
    (* Worker side of the instance: claim from the start shard, steal
       round-robin; execute with kernel-exception containment (the
       instance halts and drains, the pool lives on). *)
    let claim w =
      let rec scan k =
        if k = nshards then None
        else begin
          let sh = shards.((w + k) mod nshards) in
          Mutex.lock sh.lock;
          if sh.q_len > 0 then begin
            let v = sh.queue.(sh.q_head) in
            sh.q_head <-
              (if sh.q_head + 1 >= Array.length sh.queue then 0
               else sh.q_head + 1);
            sh.q_len <- sh.q_len - 1;
            state.(v) <- Running;
            Atomic.decr iq;
            Atomic.decr t.queued;
            Mutex.unlock sh.lock;
            Some v
          end
          else begin
            Mutex.unlock sh.lock;
            scan (k + 1)
          end
        end
      in
      scan 0
    in
    let exec v =
      (try run_node v
       with ex ->
         ignore (Atomic.compare_and_set failure None (Some ex));
         Atomic.set halt true);
      finish_task v
    in
    (* Seed: sources are runnable from the start. The instance is still
       private (no locks needed); the pool learns about the new tasks
       only after the instance array CAS publishes everything. *)
    let seeded = ref 0 in
    for v = 0 to n - 1 do
      if Graph.in_degree g v = 0 then begin
        enqueue shards.(shard_of.(v)) v;
        incr seeded
      end
    done;
    Atomic.set live !seeded;
    if !seeded = 0 then
      (* no sources: nothing can ever run, report on the spot *)
      finalize ()
    else begin
      let inst = { iid; iq; claim; exec } in
      let rec publish () =
        let cur = Atomic.get t.insts in
        let nxt = Array.append cur [| inst |] in
        if not (Atomic.compare_and_set t.insts cur nxt) then publish ()
      in
      publish ();
      (* [iq] goes live only after [t.queued]: pickers gate on [iq], so
         no claim can decrement [t.queued] below zero before the adds
         land; the idle re-check sees [t.queued] and rescans *)
      ignore (Atomic.fetch_and_add t.queued !seeded);
      ignore (Atomic.fetch_and_add iq !seeded);
      signal_idlers t !seeded
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
