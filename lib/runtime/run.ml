type config = {
  avoidance : Engine.avoidance;
  sink : Fstream_obs.Sink.t option;
  deadlock_dump : Format.formatter option;
}

let sequential ?sink ?deadlock_dump ~avoidance () =
  { avoidance; sink; deadlock_dump }

let exec config ~graph ~kernels ~inputs () =
  Engine.run ?deadlock_dump:config.deadlock_dump ?sink:config.sink ~graph
    ~kernels ~inputs ~avoidance:config.avoidance ()
