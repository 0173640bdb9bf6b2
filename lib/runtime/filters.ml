open Fstream_graph

(* Every factory takes its set-up arguments and returns a closure of
   exactly the kernel's two arguments. A kernel returned as is from
   under the factory's parameters would be merged with them into one
   function of more arguments, and each firing would then go through a
   partial-application stub; [built] keeps the two apart. *)
let built (k : Firing.kernel) = Sys.opaque_identity k

let passthrough outs = built (fun ~seq:_ ~got:_ -> outs)

let drop_all _outs = built (fun ~seq:_ ~got:_ -> [])

(* [Random.State.float rng 1.0 < keep] without boxing a float. The
   stdlib draws 64 bits, keeps the top 53 as [n] (drawing again while
   [n = 0]) and returns [n *. 2^-53]; that product is exact, so it is
   below [keep] exactly when [n < ceil (keep *. 2^53)], an int bound
   fixed per kernel. [next] is the generator step the stdlib draws
   with, declared as it declares it, so its result stays unboxed. *)
external next : Random.State.t -> (int64[@unboxed])
  = "caml_lxm_next" "caml_lxm_next_unboxed"
[@@noalloc]

let rec top53 rng =
  let n = Int64.to_int (Int64.shift_right_logical (next rng) 11) in
  if n <> 0 then n else top53 rng

(* [0] (never kept) for a [keep] of at most 0 or NaN, [max_int] (always
   kept) above 1. *)
let bound keep =
  if not (keep > 0.) then 0
  else if keep > 1. then max_int
  else Float.to_int (Float.ceil (Float.ldexp keep 53))

(* One draw per edge, in list order (the draws of [List.filter]); the
   kept suffix is shared with [l], so a fully kept list is [l] itself
   and allocates nothing. *)
let rec draw rng bound l =
  match l with
  | [] -> l
  | id :: rest ->
    let kept = top53 rng < bound in
    let rest' = draw rng bound rest in
    if not kept then rest' else if rest' == rest then l else id :: rest'

let bernoulli rng ~keep outs =
  let bound = bound keep in
  built (fun ~seq:_ ~got:_ -> draw rng bound outs)

let periodic ~keep_every outs =
  built (fun ~seq ~got:_ ->
      if keep_every < 1 then invalid_arg "Filters.periodic: keep_every < 1";
      if seq mod keep_every = 0 then outs else [])

let route_one rng outs =
  let n = List.length outs in
  let singles = Array.of_list (List.map (fun id -> [ id ]) outs) in
  built (fun ~seq:_ ~got:_ ->
      if n = 0 then [] else singles.(Random.State.int rng n))

let block_edge blocked outs =
  let kept = List.filter (fun id -> id <> blocked) outs in
  built (fun ~seq:_ ~got:_ -> kept)

let for_graph g choose v =
  let outs = List.map (fun (e : Graph.edge) -> e.id) (Graph.out_edges g v) in
  choose v outs
