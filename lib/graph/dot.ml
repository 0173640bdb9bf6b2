let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render ?(graph_name = "stream") ?node_label ?node_class ?edge_label
    ?edge_class g =
  let node_label = Option.value node_label ~default:string_of_int in
  let edge_label =
    Option.value edge_label ~default:(fun (e : Graph.edge) ->
        string_of_int e.cap)
  in
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "digraph %s {\n" graph_name;
  out "  rankdir=LR;\n  node [shape=circle];\n";
  Graph.iter_nodes g (fun v ->
      let cls =
        match Option.bind node_class (fun f -> f v) with
        | Some c -> Printf.sprintf ", class=\"%s\"" (escape c)
        | None -> ""
      in
      out "  n%d [label=\"%s\"%s];\n" v (escape (node_label v)) cls);
  List.iter
    (fun (e : Graph.edge) ->
      let cls =
        match Option.bind edge_class (fun f -> f e) with
        | Some c -> Printf.sprintf ", class=\"%s\"" (escape c)
        | None -> ""
      in
      out "  n%d -> n%d [label=\"%s\"%s];\n" e.src e.dst
        (escape (edge_label e))
        cls)
    (Graph.edges g);
  out "}\n";
  Buffer.contents buf
