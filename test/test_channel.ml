(* Differential test of the ring-buffer {!Channel} against a trivially
   correct reference model (a [Queue.t] plus scalar counters).

   The model re-states the documented contract: bounded FIFO, a push on
   a full channel returns [false] with no effect, sequence numbers must
   strictly increase *among accepted pushes* (the full check comes
   first), counters classify by kind, the watermark tracks peak
   occupancy. Messages are int codes; the model reads them only
   through {!Message.seq} and {!Message.kind}, and keeps its own
   [(seq, kind)] decoding beside each code so a buffer that confused
   codes with each other, or an encoding that lost a sequence number
   or kind, shows up as a mismatch. Random op traces over tiny
   capacities hammer the full/empty boundaries where the circular
   indexing can go wrong. *)

module Channel = Fstream_runtime.Channel
module Message = Fstream_runtime.Message

module Model = struct
  type t = {
    cap : int;
    q : Message.t Queue.t;
    mutable last_seq : int;
    mutable total : int;
    mutable dummies : int;
    mutable data : int;
    mutable hw : int;
  }

  let create ~capacity =
    {
      cap = capacity;
      q = Queue.create ();
      last_seq = -1;
      total = 0;
      dummies = 0;
      data = 0;
      hw = 0;
    }

  let push t (m : Message.t) =
    if Queue.length t.q >= t.cap then false
    else begin
      if Message.seq m <= t.last_seq then
        invalid_arg "Model.push: sequence numbers must increase";
      t.last_seq <- Message.seq m;
      t.total <- t.total + 1;
      (match Message.kind m with
      | Message.Data -> t.data <- t.data + 1
      | Message.Dummy -> t.dummies <- t.dummies + 1
      | Message.Eos -> ());
      Queue.add m t.q;
      let len = Queue.length t.q in
      if len > t.hw then t.hw <- len;
      true
    end

  let pop t = Queue.take_opt t.q
end

(* One random operation; the trace is derived from an integer seed so
   QCheck shrinks over seeds while traces stay reproducible. *)
type op =
  | Push of Message.t * (int * Message.kind)  (** the code and what it codes *)
  | Pop
  | Pop_exn
  | Peek
  | Peek_seq

let ops_of_seed seed =
  let rng = Tutil.rng_of seed in
  let cap = 1 + Random.State.int rng 4 in
  let next = ref 0 in
  let msg () =
    (* mostly monotone sequence numbers, with occasional stale (and
       negative) ones to exercise the monotonicity raise *)
    let seq =
      if Random.State.int rng 8 = 0 then !next - 1 - Random.State.int rng 3
      else begin
        let s = !next + Random.State.int rng 2 in
        next := s + 1;
        s
      end
    in
    match Random.State.int rng 10 with
    | 0 | 1 | 2 -> (Message.dummy ~seq, (seq, Message.Dummy))
    | 3 when Random.State.int rng 4 = 0 -> (Message.eos, (max_int, Message.Eos))
    | _ -> (Message.data ~seq, (seq, Message.Data))
  in
  let ops =
    List.init
      (20 + Random.State.int rng 120)
      (fun _ ->
        match Random.State.int rng 8 with
        | 0 | 1 | 2 | 3 ->
          let m, decoded = msg () in
          Push (m, decoded)
        | 4 | 5 -> Pop
        | 6 -> Pop_exn
        | 7 -> if Random.State.int rng 2 = 0 then Peek else Peek_seq
        | _ -> assert false)
  in
  (cap, ops)

(* Run a thunk, capturing an [Invalid_argument] outcome so the channel
   and the model can be required to fail identically. *)
let outcome f = try Ok (f ()) with Invalid_argument _ -> Error `Invalid

let check_state ~cap c (m : Model.t) =
  Alcotest.(check int) "length" (Queue.length m.q) (Channel.length c);
  Alcotest.(check int) "capacity" cap (Channel.capacity c);
  Alcotest.(check bool) "is_empty" (Queue.is_empty m.q) (Channel.is_empty c);
  Alcotest.(check bool)
    "is_full"
    (Queue.length m.q >= cap)
    (Channel.is_full c);
  Alcotest.(check int) "total_pushed" m.total (Channel.total_pushed c);
  Alcotest.(check int) "data_pushed" m.data (Channel.data_pushed c);
  Alcotest.(check int) "dummies_pushed" m.dummies (Channel.dummies_pushed c);
  Alcotest.(check int) "high_watermark" m.hw (Channel.high_watermark c);
  Alcotest.(check bool)
    "peek agrees" true
    (Channel.peek c = Queue.peek_opt m.q)

let run_trace seed =
  let cap, ops = ops_of_seed seed in
  let c = Channel.create ~capacity:cap in
  let m = Model.create ~capacity:cap in
  List.iter
    (fun op ->
      (match op with
      | Push (msg, (seq, kind)) ->
        Alcotest.(check int) "code keeps its seq" seq (Message.seq msg);
        Alcotest.(check bool)
          "code keeps its kind" true
          (Message.kind msg = kind);
        let a = outcome (fun () -> Channel.push c msg) in
        let b = outcome (fun () -> Model.push m msg) in
        Alcotest.(check bool) "push agrees" true (a = b)
      | Pop ->
        Alcotest.(check bool)
          "pop agrees" true
          (Channel.pop c = Model.pop m)
      | Pop_exn ->
        let a = outcome (fun () -> Channel.pop_exn c) in
        let b =
          match Model.pop m with
          | Some msg -> Ok msg
          | None -> Error `Invalid
        in
        Alcotest.(check bool) "pop_exn agrees" true (a = b)
      | Peek ->
        Alcotest.(check bool)
          "peek agrees" true
          (Channel.peek c = Queue.peek_opt m.q)
      | Peek_seq ->
        let a = outcome (fun () -> Channel.peek_seq c) in
        let b =
          match Queue.peek_opt m.q with
          | Some msg -> Ok (Message.seq msg)
          | None -> Error `Invalid
        in
        Alcotest.(check bool) "peek_seq agrees" true (a = b));
      check_state ~cap c m)
    ops;
  true

let test_create_invalid () =
  Alcotest.check_raises "capacity 0" (Invalid_argument
                                        "Channel.create: capacity < 1")
    (fun () -> ignore (Channel.create ~capacity:0))

let test_empty_raises () =
  let c = Channel.create ~capacity:2 in
  let raises name f =
    Alcotest.(check bool)
      name true
      (match outcome f with Error `Invalid -> true | Ok _ -> false)
  in
  raises "peek_seq empty" (fun () -> Channel.peek_seq c);
  raises "peek_exn empty" (fun () -> ignore (Channel.peek_exn c));
  raises "pop_exn empty" (fun () -> ignore (Channel.pop_exn c))

(* The tightest buffer: a capacity-1 channel is empty and full at
   once, so one push+pop cycle crosses both occupancy boundaries — and
   a refused push must leave no trace. *)
let test_capacity_one () =
  let c = Channel.create ~capacity:1 in
  Alcotest.(check bool)
    "push lands" true
    (Channel.push c (Message.data ~seq:0));
  Alcotest.(check bool) "became full" true (Channel.is_full c);
  Alcotest.(check bool) "full push refused" false
    (Channel.push c (Message.data ~seq:1));
  Alcotest.(check int) "refused push is silent" 1 (Channel.total_pushed c);
  ignore (Channel.pop_exn c);
  Alcotest.(check bool) "freed slot" true
    (Channel.is_empty c && not (Channel.is_full c));
  Alcotest.(check bool) "refused seq still fresh" true
    (Channel.push c (Message.data ~seq:1));
  Alcotest.(check int) "watermark" 1 (Channel.high_watermark c)

(* The code round-trips at the ends of the documented range, and no
   dummy code there collides with EOS. *)
let test_message_codes () =
  let lo = min_int asr 1 in
  List.iter
    (fun seq ->
      let d = Message.data ~seq and u = Message.dummy ~seq in
      Alcotest.(check int) "data seq" seq (Message.seq d);
      Alcotest.(check int) "dummy seq" seq (Message.seq u);
      Alcotest.(check bool) "data kind" true (Message.kind d = Message.Data);
      Alcotest.(check bool) "dummy kind" true (Message.kind u = Message.Dummy);
      Alcotest.(check bool)
        "not EOS" true
        (d <> Message.eos && u <> Message.eos))
    [ lo; -1; 0; 1; Message.max_seq ];
  Alcotest.(check int) "EOS seq" max_int (Message.seq Message.eos);
  Alcotest.(check bool) "EOS kind" true (Message.kind Message.eos = Message.Eos)

let suite =
  [
    Alcotest.test_case "message codes round-trip" `Quick test_message_codes;
    Alcotest.test_case "create rejects capacity < 1" `Quick
      test_create_invalid;
    Alcotest.test_case "empty-channel accessors raise" `Quick
      test_empty_raises;
    Alcotest.test_case "capacity-1 occupancy boundaries" `Quick
      test_capacity_one;
    Tutil.qtest ~count:500 "ring buffer ≡ queue model on random traces"
      Tutil.seed_gen run_trace;
  ]
