open Fstream_graph

type engine =
  | Sequential of { batch : int }
  | Pool of { domains : int option; grain : int; stall_ms : int option }

type config = {
  engine : engine;
  avoidance : Engine.avoidance;
  max_rounds : int option;
  sink : Fstream_obs.Sink.t option;
  deadlock_dump : Format.formatter option;
}

let default_batch = 1
let default_grain = 32
let default_stall_ms = None

let default_domains () =
  let d = try Domain.recommended_domain_count () with _ -> 2 in
  max 1 (min 8 (d - 1))

let sequential ?(batch = default_batch) ?max_rounds ?sink ?deadlock_dump
    ~avoidance () =
  {
    engine = Sequential { batch };
    avoidance;
    max_rounds;
    sink;
    deadlock_dump;
  }

let pool ?domains ?(grain = default_grain) ?stall_ms ?sink ~avoidance () =
  let stall_ms =
    match stall_ms with Some _ -> stall_ms | None -> default_stall_ms
  in
  {
    engine = Pool { domains; grain; stall_ms };
    avoidance;
    max_rounds = None;
    sink;
    deadlock_dump = None;
  }

let with_avoidance config avoidance = { config with avoidance }

type pool_impl =
  domains:int option ->
  grain:int ->
  stall_ms:int option ->
  sink:Fstream_obs.Sink.t option ->
  graph:Graph.t ->
  kernels:(Graph.node -> Engine.kernel) ->
  inputs:int ->
  avoidance:Engine.avoidance ->
  Report.t

let pool_impl : pool_impl option ref = ref None
let register_pool_impl impl = pool_impl := Some impl

let exec config ~graph ~kernels ~inputs () =
  match config.engine with
  | Sequential { batch } ->
    Engine.run ~batch ?max_rounds:config.max_rounds
      ?deadlock_dump:config.deadlock_dump ?sink:config.sink ~graph ~kernels
      ~inputs ~avoidance:config.avoidance ()
  | Pool { domains; grain; stall_ms } -> (
    match !pool_impl with
    | Some impl ->
      impl ~domains ~grain ~stall_ms ~sink:config.sink ~graph ~kernels ~inputs
        ~avoidance:config.avoidance
    | None ->
      failwith
        "Run.exec: no pool engine registered (link filterstream.parallel to \
         execute Pool configs)")

let pp_engine ppf = function
  | Sequential { batch } ->
    Format.fprintf ppf "sequential%s"
      (if batch = 1 then "" else Printf.sprintf " (batch %d)" batch)
  | Pool { domains; grain; stall_ms } ->
    Format.fprintf ppf "pool (%s domains, grain %d%s)"
      (match domains with Some d -> string_of_int d | None -> "auto")
      grain
      (match stall_ms with
      | Some ms -> Printf.sprintf ", stall backstop %d ms" ms
      | None -> "")
