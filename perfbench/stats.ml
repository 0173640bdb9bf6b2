(* Order statistics for latency samples. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted, non-empty array: the smallest
   sample with at least [p] percent of the samples at or below it. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float n))))

let percentile a p =
  if Array.length a = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank (Array.length a) p - 1)

(* Samples ranked strictly above the [p]th percentile's rank. *)
let beyond n p = n - rank n p

let median a = percentile a 50.

type tail = {
  label : string;  (** "p99", "p95" or "p90" *)
  value : float;
  beyond : int;  (** samples ranked above it *)
  sufficient : bool;  (** [beyond >= min_beyond] *)
}

let min_beyond = 10

(* The highest of p99, p95 and p90 with at least [min_beyond] samples
   beyond it; when even p90 has fewer, p90 with [sufficient = false]. *)
let tail a =
  let n = Array.length a in
  let at p label =
    { label; value = percentile a p; beyond = beyond n p;
      sufficient = beyond n p >= min_beyond }
  in
  match List.find_opt (fun (p, _) -> beyond n p >= min_beyond)
          [ (99., "p99"); (95., "p95"); (90., "p90") ] with
  | Some (p, label) -> at p label
  | None -> at 90. "p90"

let sum = List.fold_left ( +. ) 0.
