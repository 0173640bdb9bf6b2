open Fstream_graph

(* [text.[k..j)] as decimal digits after [acc], or -1 at any other byte *)
let rec decimal text k j acc =
  if k = j then acc
  else
    match text.[k] with
    | '0' .. '9' as c -> decimal text (k + 1) j ((10 * acc) + Char.code c - 48)
    | _ -> -1

(* [int_of_string_opt] of [text.[i..j)], clearing [valid] for [None].
   Up to 18 digits, perhaps after a '-', cannot overflow and are read
   in place; any other word goes to [int_of_string_opt] itself. *)
let read_int text i j valid =
  let neg = text.[i] = '-' in
  let d = if neg then i + 1 else i in
  let v = if d < j && j - d <= 18 then decimal text d j 0 else -1 in
  if v >= 0 then if neg then -v else v
  else
    match int_of_string_opt (String.sub text i (j - i)) with
    | Some v -> v
    | None ->
      valid := false;
      0

(* One pass over the text. A line's words are the runs of bytes other
   than ' ' between the whitespace [String.trim] would strip, up to the
   first '#'; the first four are kept as offsets. *)
let of_string text =
  let len = String.length text in
  let space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012' in
  let starts = Array.make 4 0 and stops = Array.make 4 0 in
  let valid = ref true in
  let int_word w = read_int text starts.(w) stops.(w) valid in
  let word w = String.sub text starts.(w) (stops.(w) - starts.(w)) in
  let nodes = ref None and edges = ref [] and error = ref None in
  let pos = ref 0 and lineno = ref 1 in
  let fail what = error := Some (Printf.sprintf "line %d: %s" !lineno what) in
  while Option.is_none !error && !pos <= len do
    let eol = ref !pos in
    while !eol < len && text.[!eol] <> '\n' do incr eol done;
    let a = ref !pos and b = ref !pos in
    while !b < !eol && text.[!b] <> '#' do incr b done;
    while !a < !b && space text.[!a] do incr a done;
    while !b > !a && space text.[!b - 1] do decr b done;
    let words = ref 0 and i = ref !a in
    while !i < !b do
      if text.[!i] = ' ' then incr i
      else begin
        if !words < 4 then starts.(!words) <- !i;
        while !i < !b && text.[!i] <> ' ' do incr i done;
        if !words < 4 then stops.(!words) <- !i;
        incr words
      end
    done;
    valid := true;
    if !words = 2 && word 0 = "nodes" then begin
      let c = int_word 1 in
      if !valid && c >= 1 then nodes := Some c else fail "bad node count"
    end
    else if !words = 4 && word 0 = "edge" then begin
      let s = int_word 1 in
      let d = int_word 2 in
      let c = int_word 3 in
      if !valid then edges := (s, d, c) :: !edges else fail "bad edge"
    end
    else if !words > 0 then fail "unrecognized directive";
    pos := !eol + 1;
    incr lineno
  done;
  match (!error, !nodes) with
  | Some e, _ -> Error e
  | None, None -> Error "missing 'nodes N' directive"
  | None, Some n -> (
    try Ok (Graph.make ~nodes:n (List.rev !edges))
    with Invalid_argument msg -> Error msg)

let to_string g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" (Graph.num_nodes g));
  List.iter
    (fun (e : Graph.edge) ->
      Buffer.add_string buf (Printf.sprintf "edge %d %d %d\n" e.src e.dst e.cap))
    (Graph.edges g);
  Buffer.contents buf

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg

let save path g = Out_channel.with_open_text path (fun oc ->
    Out_channel.output_string oc (to_string g))
