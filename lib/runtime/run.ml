open Fstream_graph

type engine = Sequential | Pool of { domains : int option }

type config = {
  engine : engine;
  avoidance : Engine.avoidance;
  sink : Fstream_obs.Sink.t option;
  deadlock_dump : Format.formatter option;
}

let sequential ?sink ?deadlock_dump ~avoidance () =
  { engine = Sequential; avoidance; sink; deadlock_dump }

let pool ?domains ?sink ~avoidance () =
  { engine = Pool { domains }; avoidance; sink; deadlock_dump = None }

type pool_impl =
  domains:int option ->
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
  | Sequential ->
    Engine.run ?deadlock_dump:config.deadlock_dump ?sink:config.sink ~graph
      ~kernels ~inputs ~avoidance:config.avoidance ()
  | Pool { domains } -> (
    match !pool_impl with
    | Some impl ->
      impl ~domains ~sink:config.sink ~graph ~kernels ~inputs
        ~avoidance:config.avoidance
    | None ->
      failwith
        "Run.exec: no pool engine registered (link filterstream.parallel to \
         execute Pool configs)")
