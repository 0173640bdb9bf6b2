(* Every workload's inputs, generated from the seed alone and handed to
   the program as text: graph files in the Graph_io format, edit
   scripts in the Edit syntax, and one request line per request. The
   same seed gives byte-identical inputs (tested).

   Resident topologies (the reconfigure tenants and the simulate
   graphs) are fixed: structure and capacities come from constant
   generator seeds, and the workload seed draws the traffic — kernel
   seeds, request order and edit scripts. A handful of resident graphs
   drawn per seed would move a run's latency by the luck of a few draws
   (lint cost follows structure, run cost follows capacities). *)

open Fstream_graph
module Topo_gen = Fstream_workloads.Topo_gen
module Graph_io = Fstream_workloads.Graph_io
module Compiler = Fstream_core.Compiler
module Thresholds = Fstream_core.Thresholds

let rng seed salt = Random.State.make [| seed; salt |]
let between r lo hi = lo + Random.State.int r (hi - lo + 1)

let recap r ~lo ~hi g = Graph.map_caps g (fun _ -> between r lo hi)

let backend_name = function
  | Compiler.Exact -> "exact"
  | Compiler.Lp -> "lp"
  | Compiler.Auto -> "auto"

let backend_of_name = function
  | "exact" -> Some Compiler.Exact
  | "lp" -> Some Compiler.Lp
  | "auto" -> Some Compiler.Auto
  | _ -> None

(* A graph file with a header comment naming the admission backend:
   "# backend auto". Graph_io ignores comments. *)
let graph_text ~backend g =
  Printf.sprintf "# backend %s\n%s" (backend_name backend) (Graph_io.to_string g)

let header_backend text =
  match String.index_opt text '\n' with
  | None -> None
  | Some i -> (
    match String.split_on_char ' ' (String.sub text 0 i) with
    | [ "#"; "backend"; b ] -> backend_of_name b
    | _ -> None)

(* Structures from constant generator seeds; see the module comment. *)
let structure salt = Random.State.make [| 0x5eed; salt |]

(* Shuffle of a multiset of classes: one period of a stratified
   schedule. Every period holds each class exactly its count of times,
   so a run's mix does not depend on the seed's luck. *)
let period r counts =
  let a = Array.of_list (List.concat_map (fun (c, k) -> List.init k (fun _ -> c)) counts) in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Resident tenants. *)

type tenant = {
  tname : string;
  text : string;  (** graph file, with the backend header *)
  inputs : int;  (** sequence numbers per run *)
  keep : float;  (** Bernoulli keep probability of every kernel *)
}

let kernel_seeds_per_session = 3

let kernel_seed r = Random.State.bits r

(* ------------------------------------------------------------------ *)
(* reconfigure: tenants alternate runs with edit scripts. *)

let reconf_tenants () =
  let caps = structure 301 in
  (* six-block chains whose lint costs 15-21 ms *)
  let chain salt =
    {
      tname = Printf.sprintf "cs4-chain-%d" salt;
      text = graph_text ~backend:Compiler.Auto
          (recap caps ~lo:1 ~hi:8
             (Topo_gen.random_cs4 (structure salt) ~blocks:6 ~block_edges:7
                ~max_cap:8));
      inputs = 250;
      keep = 0.93;
    }
  in
  [|
    chain 2003;
    chain 2007;
    chain 2008;
    {
      (* non-CS4: admitted under the LP backend, where FS201 is a
         Warning (under Exact or Auto lint refuses it) *)
      tname = "layered-dense";
      text = graph_text ~backend:Compiler.Lp
          (recap caps ~lo:2 ~hi:6 (Topo_gen.layered_dense ~layers:3 ~width:3 ~cap:1));
      inputs = 250;
      keep = 0.85;
    };
  |]

(* The Fig. 4 butterfly under Exact: the compiler tables it (general
   route), but it is not CS4, and serving admits non-CS4 topologies
   under Exact only with FS201 waived. Each set-up offers it; the
   server must refuse it. *)
let reconf_refused () =
  graph_text ~backend:Compiler.Exact
    (recap (structure 303) ~lo:1 ~hi:8 (Topo_gen.fig4_butterfly ~cap:1))

(* Each tenant's edits follow one cycle of ten: five resizes (the
   structure-preserving fast path), two add-stages, one remove-stage
   and two revisits. A revisit undoes the tenant's most recent resize
   or add-stage, returning it to a topology the server has already
   tabled: a registry hit. Edits 2 and 7 of each cycle arrive while
   the tenant's run is in flight. *)
type kind = Resize | Add | Remove | Undo

let edit_cycle =
  [| Resize; Add; Resize; Undo; Resize; Remove; Resize; Undo; Add; Resize |]

let revisit_percent = 20
let mid_run_percent = 20
let mid_run k = k mod 10 = 2 || k mod 10 = 7

(* The [k]th edit of a tenant now at [g]: the op and its inverse, if it
   has one. A kind that does not apply (nothing to undo, no stage to
   remove, no room to grow) falls back to a resize. *)
let draw_edit r g ~base_nodes ~k undo =
  let ne = Graph.num_edges g and nn = Graph.num_nodes g in
  let resize () =
    let e = Random.State.int r ne in
    let old = (Graph.edge g e).Graph.cap in
    (* any capacity in 1..8 but the current one *)
    let cap = 1 + ((old + between r 0 6) mod 8) in
    ( Edit.Resize { edge = e; cap },
      Some (Edit.Resize { edge = e; cap = old }) )
  in
  match edit_cycle.(k mod Array.length edit_cycle) with
  | Undo when !undo <> [] ->
    let inv = List.hd !undo in
    undo := List.tl !undo;
    (inv, None)
  | Add when nn < base_nodes + 6 ->
    let e = Random.State.int r ne in
    let old = (Graph.edge g e).Graph.cap in
    ( Edit.Add_stage { edge = e; cap_in = between r 1 8; cap_out = between r 1 8 },
      (* the new node is the last id and its out-edge the last edge,
         so removing it restores the graph exactly *)
      Some (Edit.Remove_stage { node = nn; cap = Some old }) )
  | Remove -> (
    match
      List.filter
        (fun v -> Graph.in_degree g v = 1 && Graph.out_degree g v = 1)
        (List.init nn Fun.id)
    with
    | [] -> resize ()
    | l ->
      (* removing a node renumbers ids: older undo entries go stale *)
      undo := [];
      ( Edit.Remove_stage
          { node = List.nth l (Random.State.int r (List.length l)); cap = None },
        None ))
  | Resize | Add | Undo -> resize ()

let script_text ops =
  String.concat "; " (List.map (Format.asprintf "%a" Edit.pp_op) ops)

(* Request lines:
   "run T KSEED" — start and await a run of tenant T;
   "edit T SCRIPT" — reconfigure idle tenant T;
   "edit-mid T KSEED SCRIPT" — start a run, reconfigure it mid-run
   (the drain waits for the run), then await.
   Rounds visit the tenants in order; a tenant's rounds alternate a run
   and an edit. *)
let reconf_requests ~seed ~count =
  let r = rng seed 302 in
  let tenants = reconf_tenants () in
  let nt = Array.length tenants in
  let graphs =
    Array.map
      (fun t -> Result.get_ok (Graph_io.of_string t.text))
      tenants
  in
  let base_nodes = Array.map Graph.num_nodes graphs in
  let undo = Array.map (fun _ -> ref []) tenants in
  let kseeds =
    Array.map (fun _ -> Array.init kernel_seeds_per_session (fun _ -> kernel_seed r)) tenants
  in
  Array.init count (fun i ->
      let t = i mod nt and round = i / nt in
      let ks = kseeds.(t).(round / 2 mod kernel_seeds_per_session) in
      if round mod 2 = 0 then Printf.sprintf "run %d %d" t ks
      else begin
        let k = round / 2 in
        let op, inverse =
          draw_edit r graphs.(t) ~base_nodes:base_nodes.(t) ~k undo.(t)
        in
        (match inverse with Some i -> undo.(t) := i :: !(undo.(t)) | None -> ());
        (match Edit.apply graphs.(t) [ op ] with
        | Ok d -> graphs.(t) <- d.Edit.graph
        | Error e -> failwith ("Inputs.reconf_requests: " ^ e));
        if mid_run k then Printf.sprintf "edit-mid %d %d %s" t ks (script_text [ op ])
        else Printf.sprintf "edit %d %s" t (script_text [ op ])
      end)

(* ------------------------------------------------------------------ *)
(* simulate: one-shot requests over graphs on both sides of the
   engine's dense_below switch (512 nodes). *)

type sim_graph = {
  sname : string;
  stext : string;
  sinputs : int;
  skeep : float;
  fuse : bool;
}

let sim_graphs () =
  let caps = structure 401 in
  let exact = Compiler.Exact in
  let pipe stages inputs fuse =
    {
      sname = Printf.sprintf "pipeline-%d%s" stages (if fuse then "-fused" else "");
      stext = graph_text ~backend:exact
          (recap caps ~lo:2 ~hi:8 (Topo_gen.pipeline ~stages ~cap:1));
      sinputs = inputs;
      skeep = 0.999;
      fuse;
    }
  in
  let cs4 name salt ~blocks ~block_edges inputs keep =
    {
      sname = name;
      stext = graph_text ~backend:exact
          (recap caps ~lo:1 ~hi:8
             (Topo_gen.random_cs4 (structure salt) ~blocks ~block_edges ~max_cap:8));
      sinputs = inputs;
      skeep = keep;
      fuse = false;
    }
  in
  [|
    cs4 "cs4-small" 31 ~blocks:3 ~block_edges:8 1500 0.9;
    cs4 "cs4-chain-460" 32 ~blocks:64 ~block_edges:9 150 0.97;
    pipe 1024 300 true;
    (* unfused, so the engine runs a graph above dense_below *)
    pipe 1536 60 false;
    pipe 2048 150 true;
  |]

(* One period of the simulate mix, by index into [sim_graphs]: 30%
   small CS4, 40% the 460-node chain (the p50 falls inside it), 10% each
   pipeline, the 2048-stage one last in cost (the p95 falls inside it). *)
let sim_mix = [ (0, 3); (1, 4); (2, 1); (3, 1); (4, 1) ]

(* "sim G KSEED" lines. *)
let sim_requests ~seed ~count =
  let r = rng seed 402 in
  let graphs = sim_graphs () in
  let kseeds =
    Array.map (fun _ -> Array.init kernel_seeds_per_session (fun _ -> kernel_seed r)) graphs
  in
  let schedule = ref [] in
  Array.init count (fun _ ->
      (match !schedule with [] -> schedule := period r sim_mix | _ -> ());
      let g = List.hd !schedule in
      schedule := List.tl !schedule;
      Printf.sprintf "sim %d %d" g
        kseeds.(g).(Random.State.int r kernel_seeds_per_session))

(* ------------------------------------------------------------------ *)

let workload_names = [ "reconfigure"; "simulate" ]

(* Every byte of input a workload receives for [count] requests. *)
let all_text ~workload ~seed ~count =
  let lines a = String.concat "\n" (Array.to_list a) in
  match workload with
  | "reconfigure" ->
    lines (Array.map (fun t -> t.text) (reconf_tenants ()))
    ^ reconf_refused ()
    ^ lines (reconf_requests ~seed ~count)
  | "simulate" ->
    lines (Array.map (fun g -> g.stext) (sim_graphs ()))
    ^ lines (sim_requests ~seed ~count)
  | w -> invalid_arg ("Inputs.all_text: " ^ w)
