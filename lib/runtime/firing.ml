open Fstream_graph
module Thresholds = Fstream_core.Thresholds
module Event = Fstream_obs.Event
module Sink = Fstream_obs.Sink

type kernel = seq:int -> got:int list -> int list

type avoidance =
  | No_avoidance
  | Propagation of Thresholds.t
  | Non_propagation of Thresholds.t

let decode g = function
  | No_avoidance -> (Array.make (Graph.num_edges g) None, false)
  | Propagation t ->
    Thresholds.check t g;
    (Thresholds.to_array t, true)
  | Non_propagation t ->
    Thresholds.check t g;
    (Thresholds.to_array t, false)

(* Scratch of one firing: the in-edges that delivered data and the
   producers whose full channel its pops drained. *)
type scratch = { got : int array; freed : int array; mutable nfreed : int }

(* Pending sends live in a per-node circular buffer instead of a
   [Queue.t]; the scalar node state rides in the same record (one block
   per node, loaded once per step). *)
type node = {
  kernel : kernel;
  pend_eid : int array;
  pend_msg : Message.t array;
  mutable pend_head : int;
  mutable pend_len : int;
  mutable next_input : int;
  mutable finished : bool;
  mutable slots : int;
  mutable flush_id : int;
  mutable got_data : int;
}

type hooks = {
  guard : (int -> Mutex.t) option;
  woke : int -> int -> unit;
  freed : int array -> int -> unit;
}

type t = {
  who : string;
  inputs : int;
  forwarding : bool;
  concurrent : bool;
  hooks : hooks;
  obs : bool;
  ev : Event.t -> unit;
  chan : Channel.t array;
  ed : int array;
  out_off : int array;
  out_flat : int array;
  in_off : int array;
  in_flat : int array;
  nodes : node array;
  scratch : scratch array; (* one shared, or one per node if concurrent *)
}

(* Per-edge scalars are packed into one stride-8 int array ([ed]) so a
   firing touches one cache line per edge instead of eight parallel
   arrays — the large-graph hot path is memory-bound (bench §C7).
   [f_thr]/[f_owner]/[f_dst] are set-up-time constants; the rest are
   written only by the edge's owner node, whose steps never overlap.
   Offsets within an edge's stride: *)
let f_thr = 0 (* dummy threshold; [max_int] = none *)
let f_last = 1 (* last sequence number sent *)
let f_slot = 2 (* queued dummy slot; [-1] = empty *)
let f_dstamp = 3 (* seq stamp: kernel chose this edge for [seq] *)
let f_bstamp = 4 (* flush_id stamp: push refused this flush *)
let f_owner = 5 (* source node of the edge *)
let f_dst = 6 (* destination node of the edge *)
let f_drop = 7 (* dummies superseded before delivery *)

let create ~who ?sink ~hooks ~graph:g ~kernels ~inputs ~avoidance () =
  let n = Graph.num_nodes g and m = Graph.num_edges g in
  let concurrent = hooks.guard <> None in
  (* [obs] gates event *construction* — with no sink (or the null
     sink) the instrumentation costs one branch per potential event
     (measured in bench O1). *)
  let sink =
    match sink with Some s when not (Sink.is_null s) -> Some s | _ -> None
  in
  let ev =
    match sink with
    | None -> ignore
    | Some s when concurrent ->
      let lock = Mutex.create () in
      fun e ->
        Mutex.lock lock;
        Sink.emit s e;
        Mutex.unlock lock
    | Some s -> Sink.emit s
  in
  let thresholds, forwarding = decode g avoidance in
  let chan =
    Array.init m (fun i -> Channel.create ~capacity:(Graph.edge g i).cap)
  in
  let ed = Array.make (m * 8) 0 in
  for i = 0 to m - 1 do
    let eb = i * 8 in
    (* [max_int] encodes "no threshold": a gap of [seq - last_sent] can
       never reach it, so the hot path does one int compare instead of
       an option match. [f_last] tracks the last sequence number sent
       on the channel — the dummy rule bounds the *sequence-number* gap
       between consecutive messages: sequence numbers filtered upstream
       never reach this node yet still advance the receiver's
       starvation clock, so counting firings instead would under-send
       (found by the S1 soundness sweep). *)
    ed.(eb + f_thr) <-
      (match thresholds.(i) with Some k -> k | None -> max_int);
    ed.(eb + f_last) <- -1;
    ed.(eb + f_slot) <- -1;
    ed.(eb + f_dstamp) <- -1;
    let e = Graph.edge g i in
    ed.(eb + f_owner) <- e.src;
    ed.(eb + f_dst) <- e.dst
  done;
  (* CSR adjacency: node [v]'s out-edge ids are
     [out_flat.(out_off.(v)) .. out_flat.(out_off.(v+1) - 1)], in
     increasing id order (same for [in_]). One flat array walked
     sequentially beats per-node arrays, whose scattered headers cost a
     cache line each on big graphs. *)
  let out_off = Array.make (n + 1) 0 in
  let in_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    out_off.(v + 1) <- out_off.(v) + Graph.out_degree g v;
    in_off.(v + 1) <- in_off.(v) + Graph.in_degree g v
  done;
  let out_flat = Array.make m 0 in
  let in_flat = Array.make m 0 in
  for v = 0 to n - 1 do
    let ids = Graph.out_edge_ids g v in
    Array.blit ids 0 out_flat out_off.(v) (Array.length ids);
    let ids = Graph.in_edge_ids g v in
    Array.blit ids 0 in_flat in_off.(v) (Array.length ids)
  done;
  let nodes =
    Array.init n (fun v ->
        let deg = Graph.out_degree g v in
        {
          kernel = kernels v;
          pend_eid = Array.make deg 0;
          pend_msg = Array.make deg Message.eos;
          pend_head = 0;
          pend_len = 0;
          next_input = 0;
          finished = false;
          slots = 0;
          flush_id = 0;
          got_data = 0;
        })
  in
  (* Sequential steps never overlap, so one scratch sized to the
     widest join serves every node; concurrent steps each get their
     own. *)
  let scratch k =
    let buf () = Array.make (max k 1) 0 in
    { got = buf (); freed = buf (); nfreed = 0 }
  in
  let widest = ref 0 in
  for v = 0 to n - 1 do
    widest := max !widest (in_off.(v + 1) - in_off.(v))
  done;
  {
    who;
    inputs;
    forwarding;
    concurrent;
    hooks;
    obs = sink <> None;
    ev;
    chan;
    ed;
    out_off;
    out_flat;
    in_off;
    in_flat;
    nodes;
    scratch =
      (if concurrent then Array.init n (fun v -> scratch (Graph.in_degree g v))
       else [| scratch !widest |]);
  }

let scratch_of t v = t.scratch.(if t.concurrent then v else 0)

let lock t v =
  match t.hooks.guard with Some guard -> Mutex.lock (guard v) | None -> ()

let unlock t v =
  match t.hooks.guard with Some guard -> Mutex.unlock (guard v) | None -> ()

let nodes t = t.nodes
let observed t = t.obs
let event t = t.ev

(* Node [v] pushes [msg] on its out-edge [e]; [false] (and no effect)
   when the channel is full. In a concurrent run the push, the wake and
   the [Push] event all happen under the consumer's lock, so the event
   precedes the consumer's [Pop]. *)
let send t v e msg =
  let dst = t.ed.((e * 8) + f_dst) in
  if t.concurrent then lock t dst;
  let c = t.chan.(e) in
  let landed = Channel.push c msg in
  if landed then begin
    if Channel.length c = 1 then t.hooks.woke v dst;
    if t.obs then
      t.ev
        (Event.Push
           { edge = e; seq = Message.seq msg; payload = Message.kind msg })
  end;
  if t.concurrent then unlock t dst;
  landed

let enqueue s eid msg =
  let size = Array.length s.pend_eid in
  assert (s.pend_len < size);
  let tail = s.pend_head + s.pend_len in
  let tail = if tail >= size then tail - size else tail in
  s.pend_eid.(tail) <- eid;
  s.pend_msg.(tail) <- msg;
  s.pend_len <- s.pend_len + 1

let drop_slot t e old =
  let eb = e * 8 in
  t.ed.(eb + f_drop) <- t.ed.(eb + f_drop) + 1;
  if t.obs then t.ev (Event.Dummy_dropped { edge = e; seq = old })

(* Data or EOS supersedes the queued dummy: it carries a larger
   sequence number, which is all the dummy was communicating. *)
let clear_slot t s e =
  let eb = e * 8 in
  let old = t.ed.(eb + f_slot) in
  if old >= 0 then begin
    t.ed.(eb + f_slot) <- -1;
    s.slots <- s.slots - 1;
    drop_slot t e old
  end

(* The hot-path helpers below thread their accumulators through
   tail-recursive loops (or reuse set-up-time scratch) instead of
   [ref] cells: without flambda every [ref] is a minor-heap block, and
   these run once per step or firing. *)
let rec flush_pending t v s left progress =
  if left = 0 then progress
  else begin
    let eid = s.pend_eid.(s.pend_head) in
    let msg = s.pend_msg.(s.pend_head) in
    s.pend_head <-
      (if s.pend_head + 1 >= Array.length s.pend_eid then 0
       else s.pend_head + 1);
    s.pend_len <- s.pend_len - 1;
    let eb = eid * 8 in
    if t.ed.(eb + f_bstamp) <> s.flush_id && send t v eid msg then
      flush_pending t v s (left - 1) true
    else begin
      t.ed.(eb + f_bstamp) <- s.flush_id;
      enqueue s eid msg;
      flush_pending t v s (left - 1) progress
    end
  end

let rec flush_slots t v s k hi progress =
  if k >= hi then progress
  else begin
    let e = t.out_flat.(k) in
    let eb = e * 8 in
    let seq = t.ed.(eb + f_slot) in
    if
      seq >= 0
      && t.ed.(eb + f_bstamp) <> s.flush_id
      && send t v e (Message.dummy ~seq)
    then begin
      t.ed.(eb + f_slot) <- -1;
      s.slots <- s.slots - 1;
      flush_slots t v s (k + 1) hi true
    end
    else flush_slots t v s (k + 1) hi progress
  end

let flush t v s =
  if s.pend_len = 0 && s.slots = 0 then false
  else begin
    s.flush_id <- s.flush_id + 1;
    let progress = flush_pending t v s s.pend_len false in
    if s.slots = 0 then progress
    else flush_slots t v s t.out_off.(v) t.out_off.(v + 1) progress
  end

(* Kernel output validation: stamp the chosen out-edges (duplicates
   collapse); O(1) ownership check per id instead of a [List.mem] scan
   of the node's out list — quadratic on wide split nodes. *)
let rec validate_ids t v stamp ids =
  match ids with
  | [] -> ()
  | id :: rest ->
    if id < 0 || id >= Array.length t.chan || t.ed.((id * 8) + f_owner) <> v
    then
      invalid_arg
        (Printf.sprintf "%s: kernel of node %d returned edge %d" t.who v id);
    t.ed.((id * 8) + f_dstamp) <- stamp;
    validate_ids t v stamp rest

(* Send phase of one firing: data where the kernel said so (stamped by
   [validate_ids] with the firing's [seq], which no earlier firing of
   the node carried); dummies by forwarding (Propagation) or when a
   finite-interval channel's gap counter comes due. Data and EOS are
   pushed directly — a node only fires with an empty pending ring and
   each out-edge is sent at most once per firing, so per-channel FIFO
   order is preserved; only a refused push falls back to the pending
   ring for the next flush. *)
let emit t v s ~seq ~got_dummy =
  let ed = t.ed in
  let msg = Message.data ~seq in
  for k = t.out_off.(v) to t.out_off.(v + 1) - 1 do
    let e = t.out_flat.(k) in
    let eb = e * 8 in
    if ed.(eb + f_dstamp) = seq then begin
      if not (send t v e msg) then enqueue s e msg;
      if ed.(eb + f_slot) >= 0 then clear_slot t s e;
      ed.(eb + f_last) <- seq
    end
    else begin
      let due = seq - ed.(eb + f_last) >= ed.(eb + f_thr) in
      if (t.forwarding && got_dummy) || due then begin
        (let old = ed.(eb + f_slot) in
         if old >= 0 then drop_slot t e old else s.slots <- s.slots + 1);
        ed.(eb + f_slot) <- seq;
        if t.obs then t.ev (Event.Dummy_emitted { node = v; edge = e; seq });
        ed.(eb + f_last) <- seq
      end
    end
  done

let send_eos t v s =
  for k = t.out_off.(v) to t.out_off.(v + 1) - 1 do
    let e = t.out_flat.(k) in
    clear_slot t s e;
    if not (send t v e Message.eos) then enqueue s e Message.eos
  done;
  if t.obs then t.ev (Event.Eos { node = v });
  s.finished <- true

let fire_source t v s =
  if s.next_input < t.inputs then begin
    let seq = s.next_input in
    s.next_input <- seq + 1;
    let ids = s.kernel ~seq ~got:[] in
    validate_ids t v seq ids;
    if t.obs then
      t.ev
        (Event.Node_fired
           {
             node = v;
             seq;
             got = [];
             got_dummy = false;
             sent = List.sort_uniq compare ids;
           });
    emit t v s ~seq ~got_dummy:false;
    true
  end
  else if not s.finished then begin
    send_eos t v s;
    true
  end
  else false

(* One pass over the heads: [min_int] when some input is empty (not
   runnable), otherwise the minimum head sequence number. *)
let rec min_head t k hi acc =
  if k >= hi then acc
  else
    let c = t.chan.(t.in_flat.(k)) in
    if Channel.is_empty c then min_int
    else
      let sq = Channel.peek_seq c in
      min_head t (k + 1) hi (if sq < acc then sq else acc)

(* Consume every head carrying [i], in increasing edge order; data
   edges land in the scratch's [got], and the producers of channels the
   pops drained from full in its [freed]. Returns the data count, with
   bit 62 flagging that a dummy was consumed. EOS heads carry
   [max_int], so they are consumed exactly when every input is at
   end-of-stream. *)
let dummy_bit = 1 lsl 62

let rec consume t s (sc : scratch) i k hi acc =
  if k >= hi then acc
  else begin
    let e = t.in_flat.(k) in
    let c = t.chan.(e) in
    if Channel.peek_seq c = i then begin
      let was_full = Channel.is_full c in
      let msg = Channel.pop_exn c in
      if was_full then begin
        sc.freed.(sc.nfreed) <- t.ed.((e * 8) + f_owner);
        sc.nfreed <- sc.nfreed + 1
      end;
      if t.obs then
        t.ev (Event.Pop { edge = e; seq = i; payload = Message.kind msg });
      if Message.is_data msg then begin
        sc.got.(acc land lnot dummy_bit) <- e;
        s.got_data <- s.got_data + 1;
        consume t s sc i (k + 1) hi (acc + 1)
      end
      else if Message.is_dummy msg then
        consume t s sc i (k + 1) hi (acc lor dummy_bit)
      else consume t s sc i (k + 1) hi acc
    end
    else consume t s sc i (k + 1) hi acc
  end

let rec got_list (sc : scratch) k acc =
  if k < 0 then acc else got_list sc (k - 1) (sc.got.(k) :: acc)

let fire_inner t v s =
  let lo = t.in_off.(v) and hi = t.in_off.(v + 1) in
  let sc = scratch_of t v in
  if t.concurrent then lock t v;
  let i = min_head t lo hi max_int in
  if i = min_int then begin
    if t.concurrent then unlock t v;
    false
  end
  else begin
    sc.nfreed <- 0;
    let acc = consume t s sc i lo hi 0 in
    if t.concurrent then unlock t v;
    if sc.nfreed > 0 then t.hooks.freed sc.freed sc.nfreed;
    (* [max_int]: every input was at end-of-stream, and is consumed *)
    if i = max_int then send_eos t v s
    else begin
      let got = got_list sc ((acc land lnot dummy_bit) - 1) [] in
      let got_dummy = acc land dummy_bit <> 0 in
      (* the kernel runs outside every lock, so node computations
         overlap under the pool *)
      let sent =
        match got with
        | [] -> []
        | got ->
          let ids = s.kernel ~seq:i ~got in
          validate_ids t v i ids;
          if t.obs then List.sort_uniq compare ids else []
      in
      if t.obs then
        t.ev (Event.Node_fired { node = v; seq = i; got; got_dummy; sent });
      emit t v s ~seq:i ~got_dummy
    end;
    true
  end

let fire t v s =
  let fired =
    if t.in_off.(v) = t.in_off.(v + 1) then fire_source t v s
    else if not s.finished then fire_inner t v s
    else false
  in
  if fired && (s.pend_len <> 0 || s.slots <> 0) then ignore (flush t v s);
  fired

let rec all_nonempty t k hi =
  k >= hi
  || ((not (Channel.is_empty t.chan.(t.in_flat.(k))))
     && all_nonempty t (k + 1) hi)

let self_arming t v =
  let s = t.nodes.(v) in
  (not s.finished)
  && s.pend_len = 0
  && all_nonempty t t.in_off.(v) t.in_off.(v + 1)

let drained t =
  Array.for_all (fun s -> s.finished && s.pend_len = 0) t.nodes
  && Array.for_all Channel.is_empty t.chan

let snapshot t =
  {
    Report.channel_lengths = Array.map Channel.length t.chan;
    node_blocked = Array.map (fun s -> s.pend_len > 0) t.nodes;
    node_finished = Array.map (fun s -> s.finished) t.nodes;
  }

let pp_state ppf t =
  Format.fprintf ppf "@[<v>deadlock state:";
  Array.iteri
    (fun i c ->
      Format.fprintf ppf "@,  e%d %d->%d cap=%d len=%d head=%s last_sent=%d" i
        t.ed.((i * 8) + f_owner)
        t.ed.((i * 8) + f_dst)
        (Channel.capacity c) (Channel.length c)
        (match Channel.peek c with
        | None -> "-"
        | Some msg -> Format.asprintf "%a" Message.pp msg)
        t.ed.((i * 8) + f_last);
      if t.ed.((i * 8) + f_slot) >= 0 then
        Format.fprintf ppf " slot=#%d" t.ed.((i * 8) + f_slot))
    t.chan;
  Array.iteri
    (fun v s ->
      if s.pend_len > 0 then
        Format.fprintf ppf "@,  node %d pending:%d next_in=%d" v s.pend_len
          s.next_input)
    t.nodes;
  Format.fprintf ppf "@]@."

let report t outcome detail =
  if t.obs then t.ev (Event.Run_finished { outcome });
  let sum f = Array.fold_left (fun a c -> a + f c) 0 t.chan in
  let dropped = ref 0 in
  for i = 0 to Array.length t.chan - 1 do
    dropped := !dropped + t.ed.((i * 8) + f_drop)
  done;
  {
    Report.outcome;
    data_messages = sum Channel.data_pushed;
    dummy_messages = sum Channel.dummies_pushed;
    sink_data =
      Array.fold_left
        (fun a s -> if Array.length s.pend_eid = 0 then a + s.got_data else a)
        0 t.nodes;
    dropped_dummies = !dropped;
    per_edge_dummies = Array.map Channel.dummies_pushed t.chan;
    detail;
  }
