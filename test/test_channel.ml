(* Differential test of the step's channel rings ({!Firing.Ring})
   against a trivially correct reference model (a [Queue.t] plus scalar
   counters).

   The model re-states the documented contract: bounded FIFO, a push on
   a full channel returns [false] with no effect, sequence numbers must
   strictly increase *among accepted pushes* (the full check comes
   first), counters classify by kind. Messages are int codes; the model
   reads them only through {!Ring.seq} and {!Ring.kind}, and keeps its
   own [(seq, kind)] decoding beside each code so a buffer that
   confused codes with each other, or an encoding that lost a sequence
   number or kind, shows up as a mismatch. Random op traces over tiny
   capacities hammer the full/empty boundaries where the circular
   indexing can go wrong. The traced channel sits between two others in
   the same flat buffer, each holding one message, so an index that
   strays out of its own slots shows up in a neighbour. *)

module Ring = Fstream_runtime.Firing.Ring
module Event = Fstream_obs.Event

module Model = struct
  type t = {
    cap : int;
    q : Ring.msg Queue.t;
    mutable last_seq : int;
    mutable dummies : int;
    mutable data : int;
  }

  let create ~capacity =
    {
      cap = capacity;
      q = Queue.create ();
      last_seq = -1;
      dummies = 0;
      data = 0;
    }

  let push t (m : Ring.msg) =
    if Queue.length t.q >= t.cap then false
    else begin
      if Ring.seq m <= t.last_seq then
        invalid_arg "Model.push: sequence numbers must increase";
      t.last_seq <- Ring.seq m;
      (match Ring.kind m with
      | Event.Data -> t.data <- t.data + 1
      | Event.Dummy -> t.dummies <- t.dummies + 1
      | Event.Eos -> ());
      Queue.add m t.q;
      true
    end

  let pop t = Queue.take_opt t.q
end

(* One random operation; the trace is derived from an integer seed so
   QCheck shrinks over seeds while traces stay reproducible. *)
type op =
  | Push of Ring.msg * (int * Event.payload)  (** the code and what it codes *)
  | Pop
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
    | 0 | 1 | 2 -> (Ring.dummy ~seq, (seq, Event.Dummy))
    | 3 when Random.State.int rng 4 = 0 -> (Ring.eos, (max_int, Event.Eos))
    | _ -> (Ring.data ~seq, (seq, Event.Data))
  in
  let ops =
    List.init
      (20 + Random.State.int rng 120)
      (fun _ ->
        match Random.State.int rng 8 with
        | 0 | 1 | 2 | 3 ->
          let m, decoded = msg () in
          Push (m, decoded)
        | 4 | 5 | 6 -> Pop
        | 7 -> if Random.State.int rng 2 = 0 then Peek else Peek_seq
        | _ -> assert false)
  in
  (cap, ops)

(* Run a thunk, capturing an [Invalid_argument] outcome so the ring
   and the model can be required to fail identically. *)
let outcome f = try Ok (f ()) with Invalid_argument _ -> Error `Invalid

(* Channel 1 of [create cap], between two neighbours that each hold
   one message the trace must never disturb. *)
let traced = 1
let neighbours = [ (0, Ring.data ~seq:7); (2, Ring.dummy ~seq:9) ]

let create cap =
  let r = Ring.create [| 1; cap; 2 |] in
  List.iter (fun (e, m) -> assert (Ring.push r e m)) neighbours;
  r

let check_state ~cap r (m : Model.t) =
  let e = traced in
  Alcotest.(check int) "length" (Queue.length m.q) (Ring.length r e);
  Alcotest.(check int) "capacity" cap (Ring.capacity r e);
  Alcotest.(check int) "data_pushed" m.data (Ring.data_pushed r e);
  Alcotest.(check int) "dummies_pushed" m.dummies (Ring.dummies_pushed r e);
  Alcotest.(check bool) "peek agrees" true (Ring.peek r e = Queue.peek_opt m.q);
  List.iter
    (fun (e, msg) ->
      Alcotest.(check bool)
        "neighbour untouched" true
        (Ring.length r e = 1 && Ring.peek r e = Some msg))
    neighbours

let run_trace seed =
  let cap, ops = ops_of_seed seed in
  let r = create cap in
  let e = traced in
  let m = Model.create ~capacity:cap in
  List.iter
    (fun op ->
      (match op with
      | Push (msg, (seq, kind)) ->
        Alcotest.(check int) "code keeps its seq" seq (Ring.seq msg);
        Alcotest.(check bool) "code keeps its kind" true (Ring.kind msg = kind);
        let a = outcome (fun () -> Ring.push r e msg) in
        let b = outcome (fun () -> Model.push m msg) in
        Alcotest.(check bool) "push agrees" true (a = b)
      | Pop ->
        let a = outcome (fun () -> Ring.pop r e) in
        let b =
          match Model.pop m with Some msg -> Ok msg | None -> Error `Invalid
        in
        Alcotest.(check bool) "pop agrees" true (a = b)
      | Peek ->
        Alcotest.(check bool)
          "peek agrees" true
          (Ring.peek r e = Queue.peek_opt m.q)
      | Peek_seq ->
        let a = outcome (fun () -> Ring.peek_seq r e) in
        let b =
          match Queue.peek_opt m.q with
          | Some msg -> Ok (Ring.seq msg)
          | None -> Error `Invalid
        in
        Alcotest.(check bool) "peek_seq agrees" true (a = b));
      check_state ~cap r m)
    ops;
  true

let test_create_invalid () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Firing.Ring.create: capacity < 1") (fun () ->
      ignore (Ring.create [| 2; 0 |]))

let test_empty_raises () =
  let r = Ring.create [| 2 |] in
  let raises name f =
    Alcotest.(check bool)
      name true
      (match outcome f with Error `Invalid -> true | Ok _ -> false)
  in
  raises "peek_seq empty" (fun () -> Ring.peek_seq r 0);
  raises "pop empty" (fun () -> ignore (Ring.pop r 0))

(* The tightest buffer: a capacity-1 channel is empty and full at
   once, so one push+pop cycle crosses both occupancy boundaries — and
   a refused push must leave no trace. *)
let test_capacity_one () =
  let r = create 1 in
  let e = traced in
  Alcotest.(check bool) "push lands" true (Ring.push r e (Ring.data ~seq:0));
  Alcotest.(check bool) "became full" true (Ring.length r e = 1);
  Alcotest.(check bool)
    "full push refused" false
    (Ring.push r e (Ring.data ~seq:1));
  Alcotest.(check int) "refused push is silent" 1 (Ring.data_pushed r e);
  ignore (Ring.pop r e);
  Alcotest.(check bool) "freed slot" true (Ring.length r e = 0);
  Alcotest.(check bool)
    "refused seq still fresh" true
    (Ring.push r e (Ring.data ~seq:1));
  Alcotest.(check bool) "head wrapped" true (Ring.peek_seq r e = 1)

(* The code round-trips at the ends of the documented range, and no
   dummy code there collides with EOS. *)
let test_message_codes () =
  let lo = min_int asr 1 in
  List.iter
    (fun seq ->
      let d = Ring.data ~seq and u = Ring.dummy ~seq in
      Alcotest.(check int) "data seq" seq (Ring.seq d);
      Alcotest.(check int) "dummy seq" seq (Ring.seq u);
      Alcotest.(check bool) "data kind" true (Ring.kind d = Event.Data);
      Alcotest.(check bool) "dummy kind" true (Ring.kind u = Event.Dummy);
      Alcotest.(check bool) "not EOS" true (d <> Ring.eos && u <> Ring.eos))
    [ lo; -1; 0; 1; Ring.max_seq ];
  Alcotest.(check int) "EOS seq" max_int (Ring.seq Ring.eos);
  Alcotest.(check bool) "EOS kind" true (Ring.kind Ring.eos = Event.Eos)

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
