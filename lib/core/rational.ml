(* Arbitrary-precision naturals as little-endian limb arrays in base
   2^31: the product of two limbs plus carries stays below 2^63, so
   every intermediate fits a native OCaml int. The canonical zero is
   the empty array and no magnitude carries trailing zero limbs, which
   makes comparison a length check first. Division is plain binary
   long division (shift-subtract): quadratic in the bit length, but
   the LP tableaus this module serves keep magnitudes at a handful of
   limbs, where simplicity beats a Knuth algorithm D that is easy to
   get subtly wrong. *)

let base_bits = 31
let base = 1 lsl base_bits
let limb_mask = base - 1

type nat = int array

let nat_zero : nat = [||]
let nat_is_zero (a : nat) = Array.length a = 0

let nat_normalize (a : nat) : nat =
  let l = ref (Array.length a) in
  while !l > 0 && a.(!l - 1) = 0 do
    decr l
  done;
  if !l = Array.length a then a else Array.sub a 0 !l

let nat_of_int n =
  if n < 0 then invalid_arg "Rational: negative magnitude"
  else if n = 0 then nat_zero
  else if n < base then [| n |]
  else [| n land limb_mask; n lsr base_bits |]

(* Any value of <= 2 limbs is < 2^62 and fits an int exactly. *)
let nat_to_int_opt (a : nat) =
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some ((a.(1) lsl base_bits) lor a.(0))
  | _ -> None

let nat_compare (a : nat) (b : nat) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let nat_add (a : nat) (b : nat) : nat =
  let la = Array.length a and lb = Array.length b in
  let l = Stdlib.max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let t =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- t land limb_mask;
    carry := t lsr base_bits
  done;
  r.(l) <- !carry;
  nat_normalize r

(* a - b, requiring a >= b *)
let nat_sub (a : nat) (b : nat) : nat =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let t = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if t < 0 then begin
      r.(i) <- t + base;
      borrow := 1
    end
    else begin
      r.(i) <- t;
      borrow := 0
    end
  done;
  if !borrow <> 0 then invalid_arg "Rational: nat_sub underflow";
  nat_normalize r

let nat_mul (a : nat) (b : nat) : nat =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then nat_zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- t land limb_mask;
          carry := t lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let t = r.(!k) + !carry in
          r.(!k) <- t land limb_mask;
          carry := t lsr base_bits;
          incr k
        done
      end
    done;
    nat_normalize r
  end

let nat_bits (a : nat) =
  let l = Array.length a in
  if l = 0 then 0
  else begin
    let top = a.(l - 1) in
    let w = ref 0 and n = ref top in
    while !n <> 0 do
      incr w;
      n := !n lsr 1
    done;
    ((l - 1) * base_bits) + !w
  end

let nat_bit (a : nat) i =
  let limb = i / base_bits and off = i mod base_bits in
  if limb >= Array.length a then 0 else (a.(limb) lsr off) land 1

let nat_divmod (a : nat) (b : nat) : nat * nat =
  if nat_is_zero b then raise Division_by_zero;
  if nat_compare a b < 0 then (nat_zero, a)
  else begin
    let lb = Array.length b in
    let bits = nat_bits a in
    let q = Array.make (Array.length a) 0 in
    (* running remainder, always < 2b after the shift, so lb + 1 limbs *)
    let r = Array.make (lb + 1) 0 in
    let shl1_or bit =
      let carry = ref bit in
      for i = 0 to lb do
        let t = (r.(i) lsl 1) lor !carry in
        r.(i) <- t land limb_mask;
        carry := t lsr base_bits
      done
    in
    let r_ge_b () =
      if r.(lb) <> 0 then true
      else
        let rec go i =
          if i < 0 then true
          else if r.(i) <> b.(i) then r.(i) > b.(i)
          else go (i - 1)
        in
        go (lb - 1)
    in
    let r_sub_b () =
      let borrow = ref 0 in
      for i = 0 to lb - 1 do
        let t = r.(i) - b.(i) - !borrow in
        if t < 0 then begin
          r.(i) <- t + base;
          borrow := 1
        end
        else begin
          r.(i) <- t;
          borrow := 0
        end
      done;
      r.(lb) <- r.(lb) - !borrow
    in
    for i = bits - 1 downto 0 do
      shl1_or (nat_bit a i);
      if r_ge_b () then begin
        r_sub_b ();
        q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
      end
    done;
    (nat_normalize q, nat_normalize (Array.sub r 0 lb))
  end

let rec nat_gcd a b =
  if nat_is_zero b then a
  else
    let _, r = nat_divmod a b in
    nat_gcd b r

(* -------------------------------------------------------------- *)

type t = { neg : bool; num : nat; den : nat }
(* invariant: den > 0, gcd (num, den) = 1, num = 0 implies not neg and
   den = 1 *)

let make_norm neg num den =
  if nat_is_zero den then raise Division_by_zero;
  if nat_is_zero num then { neg = false; num = nat_zero; den = [| 1 |] }
  else begin
    let g = nat_gcd num den in
    let num = if nat_compare g [| 1 |] = 0 then num else fst (nat_divmod num g)
    and den =
      if nat_compare g [| 1 |] = 0 then den else fst (nat_divmod den g)
    in
    { neg; num; den }
  end

let zero = { neg = false; num = nat_zero; den = [| 1 |] }
let one = { neg = false; num = [| 1 |]; den = [| 1 |] }
let minus_one = { neg = true; num = [| 1 |]; den = [| 1 |] }

let of_int n =
  if n >= 0 then { neg = false; num = nat_of_int n; den = [| 1 |] }
  else if n = min_int then
    (* -min_int overflows; build from magnitude limbs directly *)
    make_norm true (nat_add (nat_of_int max_int) [| 1 |]) [| 1 |]
  else { neg = true; num = nat_of_int (-n); den = [| 1 |] }

let make num den =
  if den = 0 then raise Division_by_zero;
  let neg = num < 0 <> (den < 0) in
  let abs_nat n =
    if n = min_int then nat_add (nat_of_int max_int) [| 1 |]
    else nat_of_int (Stdlib.abs n)
  in
  make_norm neg (abs_nat num) (abs_nat den)

let is_zero t = nat_is_zero t.num
let sign t = if nat_is_zero t.num then 0 else if t.neg then -1 else 1
let neg t = if nat_is_zero t.num then t else { t with neg = not t.neg }

(* signed magnitude addition on num * den cross products *)
let add a b =
  let ad = nat_mul a.num b.den and bc = nat_mul b.num a.den in
  let den = nat_mul a.den b.den in
  if a.neg = b.neg then make_norm a.neg (nat_add ad bc) den
  else begin
    let c = nat_compare ad bc in
    if c = 0 then zero
    else if c > 0 then make_norm a.neg (nat_sub ad bc) den
    else make_norm b.neg (nat_sub bc ad) den
  end

let sub a b = add a (neg b)
let mul a b =
  if nat_is_zero a.num || nat_is_zero b.num then zero
  else
    make_norm (a.neg <> b.neg) (nat_mul a.num b.num) (nat_mul a.den b.den)

let div a b =
  if nat_is_zero b.num then raise Division_by_zero;
  if nat_is_zero a.num then zero
  else make_norm (a.neg <> b.neg) (nat_mul a.num b.den) (nat_mul a.den b.num)

let compare a b = sign (sub a b)
let equal a b = compare a b = 0

let floor t =
  let q, r = nat_divmod t.num t.den in
  let q =
    if t.neg && not (nat_is_zero r) then nat_add q [| 1 |] else q
  in
  match nat_to_int_opt q with
  | Some n -> if t.neg then -n else n
  | None -> failwith "Rational.floor: result exceeds int range"

let ceil t = -floor (neg t)

let to_int_pair t =
  match (nat_to_int_opt t.num, nat_to_int_opt t.den) with
  | Some n, Some d -> Some ((if t.neg then -n else n), d)
  | _ -> None

let nat_to_string (a : nat) =
  if nat_is_zero a then "0"
  else begin
    let buf = Buffer.create 16 in
    let ten = [| 10 |] in
    let rec go a =
      if not (nat_is_zero a) then begin
        let q, r = nat_divmod a ten in
        Buffer.add_char buf
          (Char.chr (Char.code '0' + if nat_is_zero r then 0 else r.(0)));
        go q
      end
    in
    go a;
    let s = Buffer.contents buf in
    String.init (String.length s) (fun i ->
        s.[String.length s - 1 - i])
  end

let to_string t =
  let sgn = if t.neg then "-" else "" in
  if nat_compare t.den [| 1 |] = 0 then sgn ^ nat_to_string t.num
  else sgn ^ nat_to_string t.num ^ "/" ^ nat_to_string t.den

let pp ppf t = Format.pp_print_string ppf (to_string t)
