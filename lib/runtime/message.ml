(* [seq lsl 1] for data, [seq lsl 1 lor 1] for a dummy, [max_int] for
   EOS: an immediate int, so rings of messages are [int array]s that
   take no write barrier and hold no pointers. Data codes are even and
   EOS is odd, so one bit test tells data from the rest. *)
type t = int
type kind = Fstream_obs.Event.payload = Data | Dummy | Eos

let max_seq = (max_int asr 1) - 1
let data ~seq = seq lsl 1
let dummy ~seq = (seq lsl 1) lor 1
let eos = max_int
let seq m = if m = eos then max_int else m asr 1
let is_data m = m land 1 = 0
let is_dummy m = m land 1 = 1 && m <> eos
let kind m = if is_data m then Data else if m = eos then Eos else Dummy

let pp ppf m =
  match kind m with
  | Data -> Format.fprintf ppf "#%d:%d" (seq m) (seq m)
  | Dummy -> Format.fprintf ppf "#%d:dummy" (seq m)
  | Eos -> Format.pp_print_string ppf "#eos"
