(* Index of the lowest set bit of a non-zero word below [2^32]: the
   isolated bit times a de Bruijn constant puts a distinct 5-bit
   pattern in bits 27-31 (the product stays below [2^58], so OCaml's
   63-bit ints never wrap). *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]
[@@ocamlformat "disable"]

let[@inline] lowest_bit w =
  debruijn.((((w land -w) * 0x077CB531) lsr 27) land 31)

(* One bit per rank, 32 per word. [hi] bounds the words the current
   pass must scan, [next_hi] those armed for the next one. *)
type t = { words : int array; mutable hi : int; mutable next_hi : int }

let create n = { words = Array.make ((n + 31) lsr 5) 0; hi = -1; next_hi = -1 }

let[@inline] arm t r =
  let w = r lsr 5 in
  t.words.(w) <- t.words.(w) lor (1 lsl (r land 31));
  if w > t.hi then t.hi <- w

let[@inline] arm_next t r =
  let w = r lsr 5 in
  t.words.(w) <- t.words.(w) lor (1 lsl (r land 31));
  if w > t.next_hi then t.next_hi <- w

let is_empty t = t.hi < 0

let hooks t rank =
  {
    Firing.guard = None;
    woke = (fun _ dst -> arm t rank.(dst));
    freed =
      (fun _ producers k ->
        for j = 0 to k - 1 do
          arm_next t rank.(producers.(j))
        done);
  }

let absorb t inbox =
  for w = 0 to inbox.hi do
    let x = inbox.words.(w) in
    if x <> 0 then begin
      t.words.(w) <- t.words.(w) lor x;
      inbox.words.(w) <- 0;
      if w > t.hi then t.hi <- w
    end
  done;
  inbox.hi <- -1

(* The cursor is the pair ([wi], [above]): the word being scanned and
   the mask of its bits above the last visited one. Re-reading the
   word after every visit picks up bits armed above the cursor. *)
let pass t visit =
  let words = t.words in
  let visits = ref 0 in
  let wi = ref 0 and above = ref (-1) in
  while !wi <= t.hi do
    let w = words.(!wi) land !above in
    if w = 0 then begin
      incr wi;
      above := -1
    end
    else begin
      let b = lowest_bit w in
      words.(!wi) <- words.(!wi) lxor (1 lsl b);
      above := -2 lsl b;
      let r = (!wi lsl 5) lor b in
      incr visits;
      if visit r then arm_next t r
    end
  done;
  t.hi <- t.next_hi;
  t.next_hi <- -1;
  !visits
