open Fstream_spdag

(* The context under which a subtree's values were computed; see the
   interface comment for the recurrences these mirror. Both variants
   have canonical representations (the non-propagation list is ordered
   by enclosing-parallel depth, innermost first), so structural
   equality of keys is exactly "same values below". *)
type ctx = P of Interval.t | N of (int * int) list

type memo = (int * ctx, unit) Hashtbl.t

let memo_create () : memo = Hashtbl.create 256

type algo = Prop | Nonprop | Relay

let update algo ~(prev : memo) ~(next : memo) ivals (tree : Sp_tree.t) =
  let recomputed = ref 0 and skipped = ref 0 in
  (* an empty [prev] cannot hit: spare the cold route the lookup *)
  let cold = Hashtbl.length prev = 0 in
  let visit (t : Sp_tree.t) key descend =
    Hashtbl.replace next key ();
    if (not cold) && Hashtbl.mem prev key then
      skipped := !skipped + t.n_edges
    else descend ()
  in
  (match algo with
  | Prop ->
    let rec go (t : Sp_tree.t) v =
      visit t (t.uid, P v) (fun () ->
          match t.shape with
          | Leaf e ->
            ivals.(e.id) <- v;
            incr recomputed
          | Series (a, b) ->
            go a v;
            go b Interval.inf
          | Parallel (a, b) ->
            go a (Interval.min v (Interval.of_int b.l));
            go b (Interval.min v (Interval.of_int a.l)))
    in
    go tree Interval.inf
  | Nonprop | Relay ->
    let value =
      match algo with
      | Relay -> fun l _extra -> Interval.of_int l
      | _ -> fun l extra -> Interval.ratio l (extra + 1)
    in
    let rec go (t : Sp_tree.t) ctx =
      visit t (t.uid, N ctx) (fun () ->
          match t.shape with
          | Leaf e ->
            ivals.(e.id) <-
              List.fold_left
                (fun acc (l, extra) -> Interval.min acc (value l extra))
                Interval.inf ctx;
            incr recomputed
          | Series (a, b) ->
            (* hops of the sibling half extend every enclosing
               parallel's opposing-path hop count *)
            go a (List.map (fun (l, extra) -> (l, extra + b.h)) ctx);
            go b (List.map (fun (l, extra) -> (l, extra + a.h)) ctx)
          | Parallel (a, b) ->
            go a ((b.l, 0) :: ctx);
            go b ((a.l, 0) :: ctx))
    in
    go tree []);
  (!recomputed, !skipped)
