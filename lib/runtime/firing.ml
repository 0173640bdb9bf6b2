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

(* A message is an immediate int: [seq lsl 1] for data, [seq lsl 1 lor
   1] for a dummy, [max_int] for EOS. Data codes are even and EOS is
   odd, so one bit test tells data from the rest.

   Every channel of a run is a ring in one [int array] ([buf]): edge
   [e] owns the slots [base_e, base_e + cap_e) and holds [len] messages
   from the absolute index [head]. Its scalars are packed into the
   stride-8 [rs] (offsets below). A push or a pop touches [buf] and one
   stride, stores no pointer and takes no write barrier; the step
   calls these functions inlined, so no message costs a call out of
   the step. *)
module Ring = struct
  type msg = int
  type t = { buf : int array; rs : int array }

  let max_seq = (max_int asr 1) - 1
  let[@inline] data ~seq = seq lsl 1
  let[@inline] dummy ~seq = (seq lsl 1) lor 1
  let eos = max_int
  let[@inline] seq m = if m = eos then max_int else m asr 1
  let[@inline] is_data m = m land 1 = 0

  let[@inline] kind m : Event.payload =
    if is_data m then Data else if m = eos then Eos else Dummy

  let pp ppf m =
    match kind m with
    | Data -> Format.fprintf ppf "#%d:%d" (seq m) (seq m)
    | Dummy -> Format.fprintf ppf "#%d:dummy" (seq m)
    | Eos -> Format.pp_print_string ppf "#eos"

  let r_base = 0
  let r_cap = 1
  let r_head = 2 (* absolute index into [buf] *)
  let r_len = 3
  let r_last = 4 (* last sequence number pushed *)
  let r_data = 5 (* data messages pushed *)
  let r_dummy = 6 (* dummies pushed *)

  let create caps =
    let rs = Array.make (Array.length caps * 8) 0 in
    let size = ref 0 in
    Array.iteri
      (fun e cap ->
        if cap < 1 then invalid_arg "Firing.Ring.create: capacity < 1";
        rs.((e * 8) + r_base) <- !size;
        rs.((e * 8) + r_cap) <- cap;
        rs.((e * 8) + r_head) <- !size;
        rs.((e * 8) + r_last) <- -1;
        size := !size + cap)
      caps;
    { buf = Array.make !size eos; rs }

  let[@inline] capacity r e = r.rs.((e * 8) + r_cap)
  let[@inline] length r e = r.rs.((e * 8) + r_len)
  let data_pushed r e = r.rs.((e * 8) + r_data)
  let dummies_pushed r e = r.rs.((e * 8) + r_dummy)

  let[@inline] push r e m =
    let rs = r.rs and rb = e * 8 in
    let len = rs.(rb + r_len) and cap = rs.(rb + r_cap) in
    if len >= cap then false
    else begin
      let sq = seq m in
      if sq <= rs.(rb + r_last) then
        invalid_arg "Firing.Ring.push: sequence numbers must increase";
      rs.(rb + r_last) <- sq;
      if is_data m then rs.(rb + r_data) <- rs.(rb + r_data) + 1
      else if m <> eos then rs.(rb + r_dummy) <- rs.(rb + r_dummy) + 1;
      let tail = rs.(rb + r_head) + len in
      r.buf.(if tail >= rs.(rb + r_base) + cap then tail - cap else tail) <- m;
      rs.(rb + r_len) <- len + 1;
      true
    end

  (* the head of a non-empty ring *)
  let[@inline] head r e = r.buf.(r.rs.((e * 8) + r_head))
  let peek r e = if length r e = 0 then None else Some (head r e)

  let peek_seq r e =
    if length r e = 0 then invalid_arg "Firing.Ring.peek_seq: empty channel";
    seq (head r e)

  let[@inline] pop r e =
    let rs = r.rs and rb = e * 8 in
    let len = rs.(rb + r_len) in
    if len = 0 then invalid_arg "Firing.Ring.pop: empty channel";
    let h = rs.(rb + r_head) and base = rs.(rb + r_base) in
    rs.(rb + r_head) <-
      (if h + 1 >= base + rs.(rb + r_cap) then base else h + 1);
    rs.(rb + r_len) <- len - 1;
    r.buf.(h)
end

(* Scratch of one firing: the in-edges that delivered data and the
   producers whose full channel its pops drained. *)
type scratch = { got : int array; freed : int array; mutable nfreed : int }

(* Pending sends live in a per-node circular buffer instead of a
   [Queue.t]; the scalar node state rides in the same record (one block
   per node, loaded once per step). A node cannot fire while its
   pending ring is non-empty, so the ring never holds more than one
   firing's sends — at most [out_degree] entries — and is preallocated
   to exactly that. Both ring arrays hold immediate ints (a message is
   one), so a step stores no pointer into them and takes no write
   barrier. *)
type node = {
  kernel : kernel;
  pend_eid : int array;
  pend_msg : int array;
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
  freed : int -> int array -> int -> unit;
}

type t = {
  who : string;
  inputs : int;
  forwarding : bool;
  concurrent : bool;
  locks : Mutex.t array; (* per node, if concurrent *)
  cross : Bytes.t; (* per edge: its ends have different locks *)
  cross_in : Bytes.t; (* per node: some in-edge is cross *)
  hooks : hooks;
  obs : bool;
  ev : Event.t -> unit;
  edges : int;
  ring : Ring.t;
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
  let locks =
    match hooks.guard with Some lock_of -> Array.init n lock_of | None -> [||]
  in
  let concurrent = hooks.guard <> None in
  (* [obs] gates event *construction* — with no sink (or the null
     sink) the instrumentation costs one branch per potential event
     (measured in bench O1). *)
  let sink =
    match sink with Some s when not (Sink.is_null s) -> Some s | _ -> None
  in
  (* With one lock for every node, steps never overlap and the lock's
     hand-over already orders their events. *)
  let one_lock = Array.for_all (fun l -> l == locks.(0)) locks in
  let ev =
    match sink with
    | None -> ignore
    | Some s when not one_lock ->
      let lock = Mutex.create () in
      fun e ->
        Mutex.lock lock;
        Sink.emit s e;
        Mutex.unlock lock
    | Some s -> Sink.emit s
  in
  let thresholds, forwarding = decode g avoidance in
  let ring = Ring.create (Array.init m (fun i -> (Graph.edge g i).cap)) in
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
  let cross = Bytes.make (if concurrent then m else 0) '\000' in
  let cross_in = Bytes.make (if concurrent then n else 0) '\000' in
  if concurrent then
    for i = 0 to m - 1 do
      let e = Graph.edge g i in
      if locks.(e.src) != locks.(e.dst) then begin
        Bytes.set cross i '\001';
        Bytes.set cross_in e.dst '\001'
      end
    done;
  let nodes =
    Array.init n (fun v ->
        let deg = Graph.out_degree g v in
        {
          kernel = kernels v;
          pend_eid = Array.make deg 0;
          pend_msg = Array.make deg Ring.eos;
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
    locks;
    cross;
    cross_in;
    hooks;
    obs = sink <> None;
    ev;
    edges = m;
    ring;
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

let observed t = t.obs
let event t = t.ev

(* Node [v] pushes [msg] on its out-edge [e]; [false] (and no effect)
   when the channel is full. On a cross edge the push, the wake and the
   [Push] event all happen under the consumer's lock, so the event
   precedes the consumer's [Pop]; on any other edge both ends step only
   under one lock's hand-over. *)
let send t v e msg =
  let dst = t.ed.((e * 8) + f_dst) in
  let locked = t.concurrent && Bytes.unsafe_get t.cross e <> '\000' in
  if locked then Mutex.lock t.locks.(dst);
  let landed = Ring.push t.ring e msg in
  if landed then begin
    if Ring.length t.ring e = 1 then t.hooks.woke v dst;
    if t.obs then
      t.ev
        (Event.Push { edge = e; seq = Ring.seq msg; payload = Ring.kind msg })
  end;
  if locked then Mutex.unlock t.locks.(dst);
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
      && send t v e (Ring.dummy ~seq)
    then begin
      t.ed.(eb + f_slot) <- -1;
      s.slots <- s.slots - 1;
      flush_slots t v s (k + 1) hi true
    end
    else flush_slots t v s (k + 1) hi progress
  end

(* Retry the pending sends, then the dummy slots; [false] when nothing
   landed. Every push lands in a firing or in a flush that returns
   [true]. *)
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
    if id < 0 || id >= t.edges || t.ed.((id * 8) + f_owner) <> v then
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
  let msg = Ring.data ~seq in
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
    if not (send t v e Ring.eos) then enqueue s e Ring.eos
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
    let e = t.in_flat.(k) in
    if Ring.length t.ring e = 0 then min_int
    else
      let sq = Ring.seq (Ring.head t.ring e) in
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
    if Ring.seq (Ring.head t.ring e) = i then begin
      if Ring.length t.ring e = Ring.capacity t.ring e then begin
        sc.freed.(sc.nfreed) <- t.ed.((e * 8) + f_owner);
        sc.nfreed <- sc.nfreed + 1
      end;
      let msg = Ring.pop t.ring e in
      if t.obs then
        t.ev (Event.Pop { edge = e; seq = i; payload = Ring.kind msg });
      if Ring.is_data msg then begin
        sc.got.(acc land lnot dummy_bit) <- e;
        s.got_data <- s.got_data + 1;
        consume t s sc i (k + 1) hi (acc + 1)
      end
      else if msg <> Ring.eos then
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
  let locked = t.concurrent && Bytes.unsafe_get t.cross_in v <> '\000' in
  if locked then Mutex.lock t.locks.(v);
  let i = min_head t lo hi max_int in
  if i = min_int then begin
    if locked then Mutex.unlock t.locks.(v);
    false
  end
  else begin
    sc.nfreed <- 0;
    let acc = consume t s sc i lo hi 0 in
    if locked then Mutex.unlock t.locks.(v);
    if sc.nfreed > 0 then t.hooks.freed v sc.freed sc.nfreed;
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

let blocked t v s =
  t.ev (Event.Blocked { node = v; edge = s.pend_eid.(s.pend_head) })

let[@inline] visit t v =
  let s = t.nodes.(v) in
  let progress =
    if s.pend_len = 0 && s.slots = 0 then false else flush t v s
  in
  if s.pend_len = 0 then begin
    let fired = fire t v s in
    if fired && t.obs && t.concurrent && s.pend_len <> 0 then blocked t v s;
    fired || progress
  end
  else begin
    if t.obs && not t.concurrent then blocked t v s;
    progress
  end

(* a closure over ranks with [visit] inlined: a worklist pass reaches
   a visit through this one indirect call *)
let visitor t order =
  let visit_rank r = visit t order.(r) in
  visit_rank

let per_edge t f = Array.init t.edges (f t.ring)

let sum t f =
  let s = ref 0 in
  for e = 0 to t.edges - 1 do
    s := !s + f t.ring e
  done;
  !s

let drained t =
  Array.for_all (fun s -> s.finished && s.pend_len = 0) t.nodes
  && sum t Ring.length = 0

let snapshot t =
  {
    Report.channel_lengths = per_edge t Ring.length;
    node_blocked = Array.map (fun s -> s.pend_len > 0) t.nodes;
    node_finished = Array.map (fun s -> s.finished) t.nodes;
  }

let pp_state ppf t =
  Format.fprintf ppf "@[<v>deadlock state:";
  for i = 0 to t.edges - 1 do
    let eb = i * 8 in
    Format.fprintf ppf "@,  e%d %d->%d cap=%d len=%d head=%s last_sent=%d" i
      t.ed.(eb + f_owner) t.ed.(eb + f_dst)
      (Ring.capacity t.ring i) (Ring.length t.ring i)
      (match Ring.peek t.ring i with
      | None -> "-"
      | Some msg -> Format.asprintf "%a" Ring.pp msg)
      t.ed.(eb + f_last);
    if t.ed.(eb + f_slot) >= 0 then
      Format.fprintf ppf " slot=#%d" t.ed.(eb + f_slot)
  done;
  Array.iteri
    (fun v s ->
      if s.pend_len > 0 then
        Format.fprintf ppf "@,  node %d pending:%d next_in=%d" v s.pend_len
          s.next_input)
    t.nodes;
  Format.fprintf ppf "@]@."

let report t outcome detail =
  if t.obs then t.ev (Event.Run_finished { outcome });
  {
    Report.outcome;
    data_messages = sum t Ring.data_pushed;
    dummy_messages = sum t Ring.dummies_pushed;
    sink_data =
      Array.fold_left
        (fun a s -> if Array.length s.pend_eid = 0 then a + s.got_data else a)
        0 t.nodes;
    dropped_dummies = sum t (fun _ e -> t.ed.((e * 8) + f_drop));
    per_edge_dummies = per_edge t Ring.dummies_pushed;
    detail;
  }
