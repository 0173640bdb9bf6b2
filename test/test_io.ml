open Fstream_graph
open Fstream_workloads

let test_roundtrip () =
  let g = Topo_gen.fig3_hexagon () in
  match Graph_io.of_string (Graph_io.to_string g) with
  | Error e -> Alcotest.fail e
  | Ok g' ->
    Alcotest.(check int) "nodes" (Graph.num_nodes g) (Graph.num_nodes g');
    Alcotest.(check (list (triple int int int))) "edges"
      (List.map (fun (e : Graph.edge) -> (e.src, e.dst, e.cap)) (Graph.edges g))
      (List.map (fun (e : Graph.edge) -> (e.src, e.dst, e.cap)) (Graph.edges g'))

let test_comments_and_blanks () =
  let text = "# header\n\nnodes 3\nedge 0 1 2  # channel one\n\nedge 1 2 4\n" in
  match Graph_io.of_string text with
  | Error e -> Alcotest.fail e
  | Ok g ->
    Alcotest.(check int) "nodes parsed" 3 (Graph.num_nodes g);
    Alcotest.(check int) "edges parsed" 2 (Graph.num_edges g);
    Alcotest.(check int) "capacity parsed" 4 (Graph.edge g 1).cap

let test_errors () =
  let bad l =
    match Graph_io.of_string l with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "missing nodes" true (bad "edge 0 1 2\n");
  Alcotest.(check bool) "garbage directive" true (bad "nodes 2\nfoo\n");
  Alcotest.(check bool) "bad arity" true (bad "nodes 2\nedge 0 1\n");
  Alcotest.(check bool) "non-numeric" true (bad "nodes 2\nedge 0 x 1\n");
  Alcotest.(check bool) "semantic error surfaces" true
    (bad "nodes 2\nedge 0 0 1\n")

let prop_roundtrip =
  Tutil.qtest "to_string/of_string round-trips" Tutil.seed_gen (fun seed ->
      let g = Tutil.random_cs4_of_seed seed in
      match Graph_io.of_string (Graph_io.to_string g) with
      | Error _ -> false
      | Ok g' ->
        Graph.num_nodes g = Graph.num_nodes g'
        && List.equal
             (fun (a : Graph.edge) (b : Graph.edge) ->
               a.src = b.src && a.dst = b.dst && a.cap = b.cap)
             (Graph.edges g) (Graph.edges g'))

(* The line-based parser [Graph_io.of_string] replaced, kept verbatim
   as the oracle of the one-pass scanner: on any text both must give
   the same graph or the same message. *)
module Line_parser = struct
  let strip_comment line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line

  let of_string text =
    let lines = String.split_on_char '\n' text in
    let parse (nodes, edges, lineno) line =
      match (nodes, edges, lineno) with
      | Error _, _, _ -> (nodes, edges, lineno + 1)
      | Ok n, edges, _ -> (
        let words =
          String.split_on_char ' ' (String.trim (strip_comment line))
          |> List.filter (fun w -> w <> "")
        in
        match words with
        | [] -> (Ok n, edges, lineno + 1)
        | [ "nodes"; count ] -> (
          match int_of_string_opt count with
          | Some c when c >= 1 -> (Ok (Some c), edges, lineno + 1)
          | _ ->
            ( Error (Printf.sprintf "line %d: bad node count" lineno),
              edges,
              lineno + 1 ))
        | [ "edge"; src; dst; cap ] -> (
          match
            (int_of_string_opt src, int_of_string_opt dst, int_of_string_opt cap)
          with
          | Some s, Some d, Some c -> (Ok n, (s, d, c) :: edges, lineno + 1)
          | _ ->
            ( Error (Printf.sprintf "line %d: bad edge" lineno),
              edges,
              lineno + 1 ))
        | _ ->
          ( Error (Printf.sprintf "line %d: unrecognized directive" lineno),
            edges,
            lineno + 1 ))
    in
    let nodes, edges, _ = List.fold_left parse (Ok None, [], 1) lines in
    match nodes with
    | Error e -> Error e
    | Ok None -> Error "missing 'nodes N' directive"
    | Ok (Some n) -> (
      try Ok (Graph.make ~nodes:n (List.rev edges))
      with Invalid_argument msg -> Error msg)
end

(* Node counts a mutation can blow up to (say "nodes 9" grown to
   "nodes 99999999999") would make both parsers allocate the graph:
   such texts are skipped. *)
let modest_nodes text =
  List.for_all
    (fun line ->
      match
        String.split_on_char ' ' (String.trim (Line_parser.strip_comment line))
        |> List.filter (fun w -> w <> "")
      with
      | [ "nodes"; c ] -> (
        match int_of_string_opt c with Some k -> k <= 100_000 | None -> true)
      | _ -> true)
    (String.split_on_char '\n' text)

let same_parse text =
  QCheck.assume (modest_nodes text);
  match (Graph_io.of_string text, Line_parser.of_string text) with
  | Ok g, Ok g' -> g = g'
  | Error e, Error e' -> e = e' || QCheck.Test.fail_reportf "%S vs %S" e e'
  | Ok _, Error e -> QCheck.Test.fail_reportf "scanner accepts, oracle: %S" e
  | Error e, Ok _ -> QCheck.Test.fail_reportf "oracle accepts, scanner: %S" e

let text_families =
  [
    Tutil.random_sp_of_seed ?max_edges:None;
    Tutil.random_ladder_of_seed ?max_rungs:None;
    Tutil.random_cs4_of_seed ~max_blocks:4;
    Tutil.random_dag_of_seed;
    Tutil.random_dense_of_seed;
    (fun seed -> Topo_gen.pipeline ~stages:(1 + (seed mod 9)) ~cap:(1 + (seed mod 3)));
    (fun seed -> Topo_gen.diamond_chain ~bypass:(seed mod 2 = 1) ~diamonds:(1 + (seed mod 5)) ~cap:2 ());
  ]

(* Bytes and words the scanner must treat as [int_of_string_opt] and
   [String.trim] do: whitespace other than ' ', comments, signs, base
   prefixes, digit separators and integers at and past the int range. *)
let tokens =
  [| " "; "\t"; "\r"; "\n"; "\012"; "#"; "+"; "-"; "0x"; "0x1f"; "0b1";
     "0o7"; "0u3"; "_"; "1_0"; "0"; "7"; "x"; "edge"; "nodes";
     "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
     "-4611686018427387905"; "99999999999999999999"; "000000000000000000012" |]

let mutate rng text =
  let len = String.length text in
  let at = if len = 0 then 0 else Random.State.int rng (len + 1) in
  let token = tokens.(Random.State.int rng (Array.length tokens)) in
  let cut k = String.sub text 0 at ^ token ^ String.sub text (min len (at + k)) (len - min len (at + k)) in
  match Random.State.int rng 3 with
  | 0 -> cut 0
  | 1 -> if at < len then String.sub text 0 at ^ String.sub text (at + 1) (len - at - 1) else text
  | _ -> cut 1

let prop_scanner_matches_oracle =
  Tutil.qtest ~count:1000 "of_string = line-based oracle (family texts, mutated)"
    Tutil.seed_gen (fun seed ->
      let rng = Tutil.rng_of seed in
      let family = List.nth text_families (seed mod List.length text_families) in
      let text = Graph_io.to_string (family seed) in
      let rec go k text = if k = 0 then text else go (k - 1) (mutate rng text) in
      same_parse text && same_parse (go (Random.State.int rng 5) text))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let prop_parser_total =
  (* the parser is total: arbitrary byte soup yields Ok or Error,
     never an exception *)
  Tutil.qtest ~count:300 "of_string never raises"
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 80) QCheck.Gen.printable)
    (fun s ->
      match Graph_io.of_string s with Ok _ | Error _ -> true)

let test_dot () =
  let g = Topo_gen.fig2_triangle ~cap:2 in
  let dot = Dot.render g in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (contains dot needle))
    [ "digraph stream"; "n0 -> n1"; "n1 -> n2"; "n0 -> n2"; "label=\"2\"" ]

let test_dot_decorations () =
  let g = Topo_gen.fig2_triangle ~cap:1 in
  let dot =
    Dot.render
      ~node_label:(fun v -> [| "A"; "B"; "C" |].(v))
      ~edge_class:(fun e -> if e.Graph.id = 2 then Some "filtered" else None)
      g
  in
  Alcotest.(check bool) "custom node label" true
    (contains dot "label=\"A\"");
  Alcotest.(check bool) "edge class attribute" true
    (contains dot "class=\"filtered\"")

let suite =
  [
    Alcotest.test_case "graph file round-trip" `Quick test_roundtrip;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
    Alcotest.test_case "parse errors" `Quick test_errors;
    Alcotest.test_case "dot rendering" `Quick test_dot;
    Alcotest.test_case "dot decorations" `Quick test_dot_decorations;
    prop_roundtrip;
    prop_parser_total;
    prop_scanner_matches_oracle;
  ]
