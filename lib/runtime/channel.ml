(* Preallocated circular buffer: [buf] holds [len] messages starting at
   [head], wrapping modulo [capacity]. Messages are immediate ints, so
   [buf] is an int array: steady-state push/pop touch only it, the two
   indices and the counters — no queue cells, no options, no write
   barrier, and a popped slot retains nothing. *)

type t = {
  capacity : int;
  buf : Message.t array;
  mutable head : int;
  mutable len : int;
  mutable last_seq : int;
  mutable total_pushed : int;
  mutable dummies_pushed : int;
  mutable data_pushed : int;
  mutable high_watermark : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Channel.create: capacity < 1";
  {
    capacity;
    buf = Array.make capacity Message.eos;
    head = 0;
    len = 0;
    last_seq = -1;
    total_pushed = 0;
    dummies_pushed = 0;
    data_pushed = 0;
    high_watermark = 0;
  }

let capacity c = c.capacity
let length c = c.len
let is_full c = c.len >= c.capacity
let is_empty c = c.len = 0

let push c (m : Message.t) =
  if c.len >= c.capacity then false
  else begin
    let seq = Message.seq m in
    if seq <= c.last_seq then
      invalid_arg "Channel.push: sequence numbers must increase";
    c.last_seq <- seq;
    c.total_pushed <- c.total_pushed + 1;
    if Message.is_data m then c.data_pushed <- c.data_pushed + 1
    else if Message.is_dummy m then c.dummies_pushed <- c.dummies_pushed + 1;
    let tail = c.head + c.len in
    let tail = if tail >= c.capacity then tail - c.capacity else tail in
    c.buf.(tail) <- m;
    c.len <- c.len + 1;
    if c.len > c.high_watermark then c.high_watermark <- c.len;
    true
  end

let head c = c.buf.(c.head)

let peek_seq c =
  if c.len = 0 then invalid_arg "Channel.peek_seq: empty channel";
  Message.seq (head c)

let peek_exn c =
  if c.len = 0 then invalid_arg "Channel.peek_exn: empty channel";
  head c

let peek c = if c.len = 0 then None else Some (head c)

let pop_exn c =
  if c.len = 0 then invalid_arg "Channel.pop_exn: empty channel";
  let m = head c in
  c.head <- (if c.head + 1 >= c.capacity then 0 else c.head + 1);
  c.len <- c.len - 1;
  m

let pop c = if c.len = 0 then None else Some (pop_exn c)

let total_pushed c = c.total_pushed
let dummies_pushed c = c.dummies_pushed
let data_pushed c = c.data_pushed
let high_watermark c = c.high_watermark
