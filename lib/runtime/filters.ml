open Fstream_graph

(* Every factory takes its set-up arguments and returns a closure of
   exactly the kernel's two arguments. A kernel returned as is from
   under the factory's parameters would be merged with them into one
   function of more arguments, and each firing would then go through a
   partial-application stub; [built] keeps the two apart. *)
let built (k : Firing.kernel) = Sys.opaque_identity k

let passthrough outs = built (fun ~seq:_ ~got:_ -> outs)

let drop_all _outs = built (fun ~seq:_ ~got:_ -> [])

(* One draw per edge, in list order (the draws of [List.filter]); the
   kept suffix is shared with [l], so a fully kept list is [l] itself
   and allocates nothing. *)
let rec draw rng keep l =
  match l with
  | [] -> l
  | id :: rest ->
    let kept = Random.State.float rng 1.0 < keep in
    let rest' = draw rng keep rest in
    if not kept then rest' else if rest' == rest then l else id :: rest'

let bernoulli rng ~keep outs = built (fun ~seq:_ ~got:_ -> draw rng keep outs)

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
