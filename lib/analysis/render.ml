open Fstream_graph
module Repair = Fstream_repair.Repair

(* ------------------------------------------------------------------ *)
(* Shared small pieces                                                  *)

let severity_string = function
  | Lint.Error -> "error"
  | Lint.Warning -> "warning"
  | Lint.Info -> "info"

let chan g id =
  let e = Graph.edge g id in
  Printf.sprintf "e%d (%d->%d)" id e.Graph.src e.Graph.dst

let location_string g = function
  | Lint.Whole_graph -> "graph"
  | Lint.Node v -> Printf.sprintf "node %d" v
  | Lint.Channel id -> Printf.sprintf "channel %s" (chan g id)
  | Lint.Nodes vs ->
    Printf.sprintf "nodes {%s}"
      (String.concat ", " (List.map string_of_int vs))
  | Lint.Channels ids ->
    Printf.sprintf "channels {%s}"
      (String.concat ", " (List.map (fun id -> Printf.sprintf "e%d" id) ids))

let fixit_string = function
  | Lint.Scale_buffers c ->
    Printf.sprintf "scale every buffer capacity by x%d" c
  | Lint.Reroute r ->
    String.concat "; "
      (Printf.sprintf "reroute to CS4 (%d channel(s) deleted, %d added)"
         r.Repair.deleted_edges r.Repair.added_edges
      :: List.map
           (fun rr -> Format.asprintf "%a" Repair.pp_reroute rr)
           r.Repair.reroutes)

(* ------------------------------------------------------------------ *)
(* Human text                                                           *)

let text ?(color = false) ppf ~graph ~source (report : Lint.report) =
  let paint sev s =
    if not color then s
    else
      let code =
        match sev with
        | Lint.Error -> "31"
        | Lint.Warning -> "33"
        | Lint.Info -> "36"
      in
      Printf.sprintf "\027[%sm%s\027[0m" code s
  in
  Format.fprintf ppf "lint: %s@." source;
  List.iter
    (fun (d : Lint.diagnostic) ->
      Format.fprintf ppf "%s %s %s: %s@." d.code
        (paint d.severity (severity_string d.severity))
        (location_string graph d.location)
        d.message;
      List.iter (fun w -> Format.fprintf ppf "    witness: %s@." w) d.witness;
      match Lint.fixit d with
      | Some f -> Format.fprintf ppf "    fix: %s@." (fixit_string f)
      | None -> ())
    report.diagnostics;
  (match report.incomplete with
  | Some note -> Format.fprintf ppf "analysis incomplete: %s@." note
  | None -> ());
  let c sev = Lint.count report sev in
  if report.diagnostics = [] then Format.fprintf ppf "clean: no findings@."
  else
    Format.fprintf ppf "%d error(s), %d warning(s), %d info(s)@."
      (c Lint.Error) (c Lint.Warning) (c Lint.Info)

(* ------------------------------------------------------------------ *)
(* JSON scaffolding (no JSON library in the dependency set; the same
   hand-rolled style as Fstream_obs.Trace_json)                         *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
        Buffer.add_char b '\\';
        Buffer.add_char b c
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let str s = Printf.sprintf "\"%s\"" (escape s)
let ints l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"
let strs l = "[" ^ String.concat "," (List.map str l) ^ "]"

let location_json g = function
  | Lint.Whole_graph -> {|{"kind":"graph"}|}
  | Lint.Node v -> Printf.sprintf {|{"kind":"node","node":%d}|} v
  | Lint.Channel id ->
    let e = Graph.edge g id in
    Printf.sprintf {|{"kind":"channel","channel":%d,"src":%d,"dst":%d}|} id
      e.Graph.src e.Graph.dst
  | Lint.Nodes vs -> Printf.sprintf {|{"kind":"nodes","nodes":%s}|} (ints vs)
  | Lint.Channels ids ->
    Printf.sprintf {|{"kind":"channels","channels":%s}|} (ints ids)

let fixit_json = function
  | Lint.Scale_buffers c ->
    Printf.sprintf {|{"kind":"scale_buffers","factor":%d}|} c
  | Lint.Reroute r ->
    Printf.sprintf
      {|{"kind":"reroute","deleted_edges":%d,"added_edges":%d,"reroutes":%s}|}
      r.Repair.deleted_edges r.Repair.added_edges
      (strs
         (List.map
            (fun rr -> Format.asprintf "%a" Repair.pp_reroute rr)
            r.Repair.reroutes))

let jsonl ppf ~graph (report : Lint.report) =
  List.iter
    (fun (d : Lint.diagnostic) ->
      Format.fprintf ppf
        {|{"code":%s,"severity":%s,"location":%s,"message":%s,"witness":%s%s}|}
        (str d.code)
        (str (severity_string d.severity))
        (location_json graph d.location)
        (str d.message) (strs d.witness)
        (match Lint.fixit d with
        | None -> ""
        | Some f -> Printf.sprintf {|,"fixit":%s|} (fixit_json f));
      Format.pp_print_newline ppf ())
    report.diagnostics;
  Format.fprintf ppf
    {|{"summary":{"errors":%d,"warnings":%d,"infos":%d},"incomplete":%s}|}
    (Lint.count report Lint.Error)
    (Lint.count report Lint.Warning)
    (Lint.count report Lint.Info)
    (match report.incomplete with None -> "null" | Some n -> str n);
  Format.pp_print_newline ppf ()

(* ------------------------------------------------------------------ *)
(* SARIF 2.1.0                                                          *)

let sarif_level = function
  | Lint.Error -> "error"
  | Lint.Warning -> "warning"
  | Lint.Info -> "note"

let logical_locations g = function
  | Lint.Whole_graph ->
    [ {|{"name":"graph","kind":"module"}|} ]
  | Lint.Node v ->
    [ Printf.sprintf {|{"name":"node %d","kind":"function"}|} v ]
  | Lint.Channel id ->
    [
      Printf.sprintf {|{"name":%s,"kind":"resource"}|} (str (chan g id));
    ]
  | Lint.Nodes vs ->
    List.map
      (fun v -> Printf.sprintf {|{"name":"node %d","kind":"function"}|} v)
      vs
  | Lint.Channels ids ->
    List.map
      (fun id ->
        Printf.sprintf {|{"name":%s,"kind":"resource"}|} (str (chan g id)))
      ids

let sarif ppf ~graph ~source (report : Lint.report) =
  let rule_index code =
    let rec go i = function
      | [] -> -1
      | (r : Lint.rule) :: rest -> if r.id = code then i else go (i + 1) rest
    in
    go 0 Lint.rules
  in
  let rules_json =
    String.concat ",\n        "
      (List.map
         (fun (r : Lint.rule) ->
           Printf.sprintf
             {|{"id":%s,"shortDescription":{"text":%s},"defaultConfiguration":{"level":%s}}|}
             (str r.id) (str r.title)
             (str (sarif_level r.default_severity)))
         Lint.rules)
  in
  let result_json (d : Lint.diagnostic) =
    let full_message =
      String.concat "\n"
        (d.message
         :: List.map (fun w -> "witness: " ^ w) d.witness
        @
        match Lint.fixit d with
        | Some f -> [ "fix: " ^ fixit_string f ]
        | None -> [])
    in
    Printf.sprintf
      {|{"ruleId":%s,"ruleIndex":%d,"level":%s,"message":{"text":%s},"locations":[{"physicalLocation":{"artifactLocation":{"uri":%s}},"logicalLocations":[%s]}]}|}
      (str d.code) (rule_index d.code)
      (str (sarif_level d.severity))
      (str full_message) (str source)
      (String.concat "," (logical_locations graph d.location))
  in
  let results =
    String.concat ",\n        " (List.map result_json report.diagnostics)
  in
  let notifications =
    match report.incomplete with
    | None -> ""
    | Some note ->
      Printf.sprintf
        {|,"toolExecutionNotifications":[{"level":"warning","message":{"text":%s}}]|}
        (str note)
  in
  Format.fprintf ppf
    {|{
  "version": "2.1.0",
  "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
  "runs": [
    {
      "tool": {
        "driver": {
          "name": "streamcheck lint",
          "informationUri": "https://github.com/filterstream/filterstream",
          "rules": [
        %s
          ]
        }
      },
      "results": [
        %s
      ],
      "invocations": [{"executionSuccessful": true%s}]
    }
  ]
}|}
    rules_json results notifications;
  Format.pp_print_newline ppf ()
