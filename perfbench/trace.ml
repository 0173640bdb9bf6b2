(* In-memory spans around the public calls a request makes.

   A span has a name, start, end, parent and request id. Spans are kept
   in memory and written out when the run ends; a layer's self time is
   its span minus the part of it that its child spans cover. Recording
   is off unless the run is traced, and then costs one clock read per
   boundary. *)

type span = {
  id : int;
  name : string;
  start : float;  (** seconds, monotonic *)
  stop : float;
  parent : int;  (** [-1] for a root *)
  rid : int;  (** request id; [-1] outside requests *)
  replay_of : string option;
      (** [Some s]: a call that span [s] of the same request makes
          internally, repeated by the benchmark on the same input so it
          can be timed from outside; not part of the request as served *)
}

type t = {
  enabled : bool;
  mutable spans : span list;
  mutable next : int;
  mutable stack : (int * int) list;  (** open (span id, rid) *)
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create ~enabled = { enabled; spans = []; next = 0; stack = [] }
let enabled t = t.enabled

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

let record ?replay_of t ~id ~name ~start ~stop ~parent ~rid =
  if t.enabled then
    t.spans <- { id; name; start; stop; parent; rid; replay_of } :: t.spans

(* Run [f] inside a span nested under the innermost open one. With a
   [rid], the span opens a new request tree (its parent is [-1]). *)
let span ?rid ?replay_of t name f =
  if not t.enabled then f ()
  else begin
    let id = fresh_id t in
    let parent, rid =
      match (rid, t.stack) with
      | Some r, _ -> (-1, r)
      | None, (p, r) :: _ -> (p, r)
      | None, [] -> (-1, -1)
    in
    t.stack <- (id, rid) :: t.stack;
    let start = now () in
    let finish () =
      let stop = now () in
      t.stack <- List.tl t.stack;
      record ?replay_of t ~id ~name ~start ~stop ~parent ~rid
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let spans t = List.rev t.spans

let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Every span paired with its self time in seconds: its duration minus
   what its children cover and, for a span that replays stand in for,
   minus those replays — so the self times of one request add up to its
   time as served. *)
let self_times spans =
  let replayed = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match s.replay_of with
      | Some o ->
        Hashtbl.replace replayed (s.rid, o)
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt replayed (s.rid, o)))
      | None -> ())
    spans;
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let inside =
        Option.value ~default:0. (Hashtbl.find_opt replayed (s.rid, s.name))
      in
      (s, duration s -. covered ~lo:s.start ~hi:s.stop kids -. inside))
    spans

(* The layer a span belongs to: its name up to the first dot. *)
let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let to_json spans =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"rid\":%d%s}"
           s.id s.name s.start s.stop s.parent s.rid
           (match s.replay_of with
           | Some o -> Printf.sprintf ",\"replay_of\":%S" o
           | None -> "")))
    spans;
  Buffer.add_string b "]\n";
  Buffer.contents b
