type op =
  | Resize of { edge : int; cap : int }
  | Add_edge of { src : int; dst : int; cap : int }
  | Remove_edge of { edge : int }
  | Add_stage of { edge : int; cap_in : int; cap_out : int }
  | Remove_stage of { node : int; cap : int option }

type delta = {
  base : Graph.t;
  graph : Graph.t;
  dirty : bool array;
  resize_only : bool;
}

(* Working state while the script runs: the current edge list in id
   order and the current node count. *)
type entry = { esrc : int; edst : int; ecap : int; edirty : bool }

type st = { mutable entries : entry array; mutable nnodes : int }

let errf fmt = Format.kasprintf (fun s -> Error s) fmt

let check_edge st ~op e =
  if e < 0 || e >= Array.length st.entries then
    errf "%s: edge e%d out of range (graph has %d edges)" op e
      (Array.length st.entries)
  else Ok ()

let check_node st ~op v =
  if v < 0 || v >= st.nnodes then
    errf "%s: node %d out of range (graph has %d nodes)" op v st.nnodes
  else Ok ()

let check_cap ~op c =
  if c < 1 then errf "%s: capacity %d < 1" op c else Ok ()

let ( let* ) = Result.bind

let fresh_node st =
  let v = st.nnodes in
  st.nnodes <- v + 1;
  v

let without i entries =
  Array.of_list (List.filteri (fun j _ -> j <> i) (Array.to_list entries))

let apply_op st = function
  | Resize { edge; cap } ->
    let* () = check_edge st ~op:"resize" edge in
    let* () = check_cap ~op:"resize" cap in
    let e = st.entries.(edge) in
    st.entries.(edge) <- { e with ecap = cap; edirty = true };
    Ok ()
  | Add_edge { src; dst; cap } ->
    let* () = check_node st ~op:"add-edge" src in
    let* () = check_node st ~op:"add-edge" dst in
    let* () = check_cap ~op:"add-edge" cap in
    if src = dst then errf "add-edge: self-loop at node %d" src
    else begin
      st.entries <-
        Array.append st.entries
          [| { esrc = src; edst = dst; ecap = cap; edirty = true } |];
      Ok ()
    end
  | Remove_edge { edge } ->
    let* () = check_edge st ~op:"remove-edge" edge in
    st.entries <- without edge st.entries;
    Ok ()
  | Add_stage { edge; cap_in; cap_out } ->
    let* () = check_edge st ~op:"add-stage" edge in
    let* () = check_cap ~op:"add-stage" cap_in in
    let* () = check_cap ~op:"add-stage" cap_out in
    let e = st.entries.(edge) in
    let v = fresh_node st in
    st.entries.(edge) <-
      { esrc = e.esrc; edst = v; ecap = cap_in; edirty = true };
    st.entries <-
      Array.append st.entries
        [| { esrc = v; edst = e.edst; ecap = cap_out; edirty = true } |];
    Ok ()
  | Remove_stage { node; cap } ->
    let* () = check_node st ~op:"remove-stage" node in
    let ins = ref [] and outs = ref [] in
    Array.iteri
      (fun i e ->
        if e.edst = node then ins := i :: !ins;
        if e.esrc = node then outs := i :: !outs)
      st.entries;
    (match (!ins, !outs) with
    | [ i ], [ o ] ->
      let ein = st.entries.(i) and eout = st.entries.(o) in
      if ein.esrc = eout.edst then
        errf "remove-stage: splicing node %d would create a self-loop at %d"
          node ein.esrc
      else begin
        let cap =
          match cap with Some c -> c | None -> min ein.ecap eout.ecap
        in
        let* () = check_cap ~op:"remove-stage" cap in
        st.entries.(i) <-
          { esrc = ein.esrc; edst = eout.edst; ecap = cap; edirty = true };
        (* drop the node; higher node ids shift down *)
        let renum v = if v > node then v - 1 else v in
        st.entries <-
          Array.map
            (fun e -> { e with esrc = renum e.esrc; edst = renum e.edst })
            (without o st.entries);
        st.nnodes <- st.nnodes - 1;
        Ok ()
      end
    | ins, outs ->
      errf
        "remove-stage: node %d has %d in-edge%s and %d out-edge%s (need \
         exactly one of each)"
        node (List.length ins)
        (if List.length ins = 1 then "" else "s")
        (List.length outs)
        (if List.length outs = 1 then "" else "s"))

let apply base ops =
  let st =
    {
      entries =
        Array.map
          (fun (e : Graph.edge) ->
            { esrc = e.src; edst = e.dst; ecap = e.cap; edirty = false })
          (Array.of_list (Graph.edges base));
      nnodes = Graph.num_nodes base;
    }
  in
  let rec run = function
    | [] -> Ok ()
    | op :: rest ->
      let* () = apply_op st op in
      run rest
  in
  let* () = run ops in
  (* every op passed its own checks, so [make] can refuse only the
     capacity total *)
  match
    Graph.make ~nodes:st.nnodes
      (Array.to_list (Array.map (fun e -> (e.esrc, e.edst, e.ecap)) st.entries))
  with
  | exception Invalid_argument msg -> Error msg
  | graph ->
    Ok
      {
        base;
        graph;
        dirty = Array.map (fun e -> e.edirty) st.entries;
        resize_only = List.for_all (function Resize _ -> true | _ -> false) ops;
      }

(* --- concrete syntax ---------------------------------------------- *)

let pp_op ppf = function
  | Resize { edge; cap } -> Format.fprintf ppf "resize e%d %d" edge cap
  | Add_edge { src; dst; cap } ->
    Format.fprintf ppf "add-edge n%d n%d %d" src dst cap
  | Remove_edge { edge } -> Format.fprintf ppf "remove-edge e%d" edge
  | Add_stage { edge; cap_in; cap_out } ->
    Format.fprintf ppf "add-stage e%d %d %d" edge cap_in cap_out
  | Remove_stage { node; cap } ->
    Format.fprintf ppf "remove-stage n%d%s" node
      (match cap with None -> "" | Some c -> " " ^ string_of_int c)

let parse_id word =
  let body =
    if String.length word > 1 && (word.[0] = 'e' || word.[0] = 'n') then
      String.sub word 1 (String.length word - 1)
    else word
  in
  int_of_string_opt body

let parse_one text =
  let words =
    String.split_on_char ' ' (String.trim text)
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun w -> w <> "")
  in
  let id ~what w =
    match parse_id w with
    | Some v -> Ok v
    | None -> errf "%s: expected an id, got %S" what w
  in
  let int ~what w =
    match int_of_string_opt w with
    | Some v -> Ok v
    | None -> errf "%s: expected an integer, got %S" what w
  in
  match words with
  | [ "resize"; e; c ] ->
    let* edge = id ~what:"resize" e in
    let* cap = int ~what:"resize" c in
    Ok (Resize { edge; cap })
  | [ "add-edge"; s; d; c ] ->
    let* src = id ~what:"add-edge" s in
    let* dst = id ~what:"add-edge" d in
    let* cap = int ~what:"add-edge" c in
    Ok (Add_edge { src; dst; cap })
  | [ "remove-edge"; e ] ->
    let* edge = id ~what:"remove-edge" e in
    Ok (Remove_edge { edge })
  | [ "add-stage"; e; ci; co ] ->
    let* edge = id ~what:"add-stage" e in
    let* cap_in = int ~what:"add-stage" ci in
    let* cap_out = int ~what:"add-stage" co in
    Ok (Add_stage { edge; cap_in; cap_out })
  | [ "remove-stage"; v ] ->
    let* node = id ~what:"remove-stage" v in
    Ok (Remove_stage { node; cap = None })
  | [ "remove-stage"; v; c ] ->
    let* node = id ~what:"remove-stage" v in
    let* cap = int ~what:"remove-stage" c in
    Ok (Remove_stage { node; cap = Some cap })
  | [] -> Error "empty edit op"
  | verb :: _ -> errf "unknown or malformed edit op %S" verb

let parse_ops text =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | piece :: rest ->
      if String.trim piece = "" then go acc rest
      else
        let* op = parse_one piece in
        go (op :: acc) rest
  in
  go [] (String.split_on_char ';' text)
