open Fstream_graph
module Lint = Fstream_analysis.Lint
module Compiler = Fstream_core.Compiler
module Thresholds = Fstream_core.Thresholds
module Engine = Fstream_runtime.Engine
module Report = Fstream_runtime.Report
module Run = Fstream_runtime.Run
module Pool = Fstream_parallel.Parallel_engine.Pool
module App_spec = Fstream_workloads.App_spec

type mode = No_avoidance | Propagation | Non_propagation

let pp_mode ppf = function
  | No_avoidance -> Format.pp_print_string ppf "none"
  | Propagation -> Format.pp_print_string ppf "propagation"
  | Non_propagation -> Format.pp_print_string ppf "non-propagation"

type rejection =
  | Lint_rejected of Lint.diagnostic list
  | Analysis_incomplete of string
  | Plan_rejected of Compiler.error
  | Edit_rejected of string

let pp_rejection ppf = function
  | Lint_rejected ds ->
    Format.fprintf ppf "lint rejected the topology:";
    List.iter
      (fun (d : Lint.diagnostic) ->
        Format.fprintf ppf "@\n  %s %a: %s" d.code Lint.pp_severity d.severity
          d.message)
      ds
  | Analysis_incomplete what ->
    Format.fprintf ppf "analysis incomplete, not admitting unverified \
                        topology: %s"
      what
  | Plan_rejected e -> Format.fprintf ppf "plan error: %a" Compiler.pp_error e
  | Edit_rejected msg -> Format.fprintf ppf "edit script rejected: %s" msg

(* One registry generation: the shared avoidance value, the compile
   cache whose current epoch produced it (what a reconfigure resolves
   incrementally against), and the generation number tables are
   stamped with. *)
type entry = {
  av : Engine.avoidance;
  cache : Compiler.cache;
  eepoch : int;
}

(* (graph fingerprint, mode, backend) *)
type key = int * mode * Compiler.backend

type t = {
  pool : Pool.t;
  grain : int;
  options : Compiler.Options.t;
  lock : Mutex.t; (* registry, caches, counters *)
  (* Both caches key on the backend as well as (fingerprint, mode):
     the verdict depends on it (FS201 is a Warning under [Lp], an
     Error otherwise) and so does the table (the backends compute
     different intervals) — a per-tenant backend override or an
     epoch-scoped option change must never be served another
     backend's cached result. *)
  registry : (key, entry) Hashtbl.t;
  lint_cache : (key, Lint.report) Hashtbl.t; (* spec-less verdicts *)
  mutable tenants : int;
  mutable rejections : int;
  mutable compiles : int;
  mutable recompiles : int;
  mutable warm_pivots : int;
}

type session = {
  sname : string;
  smode : mode;
  sbackend : Compiler.backend;
  server : t;
  slock : Mutex.t;
  scond : Condition.t;
  mutable graph : Graph.t;
  mutable savoidance : Engine.avoidance;
  mutable sepoch : int;
  mutable job : Pool.job option;
  mutable awaiting : bool; (* a thread is inside Pool.await for [job] *)
  mutable report : Report.t option;
}

let create ?domains ?quota ?(grain = Run.default_grain)
    ?(options = Compiler.Options.default) () =
  {
    pool = Pool.create ?domains ?quota ();
    grain;
    options;
    lock = Mutex.create ();
    registry = Hashtbl.create 64;
    lint_cache = Hashtbl.create 64;
    tenants = 0;
    rejections = 0;
    compiles = 0;
    recompiles = 0;
    warm_pivots = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let lint_algorithm = function
  | Propagation -> Compiler.Propagation
  | Non_propagation | No_avoidance -> Compiler.Non_propagation

(* Admission step 1: the lint verdict. Spec-less verdicts depend only
   on what the cache key covers (structure + capacities + mode +
   backend), so they are cached; a spec brings tenant-specific
   behaviours (rules FS401-FS403) and is always linted fresh. *)
let lint_verdict t ((_, mode, backend) as key) ~spec g =
  let config =
    {
      Lint.default_config with
      algorithm = lint_algorithm mode;
      backend;
      spec;
    }
  in
  let fresh () = Lint.run ~config g in
  let report =
    match spec with
    | Some _ -> fresh ()
    | None -> (
      match locked t (fun () -> Hashtbl.find_opt t.lint_cache key) with
      | Some r -> r
      | None ->
        let r = fresh () in
        locked t (fun () ->
            if not (Hashtbl.mem t.lint_cache key) then
              Hashtbl.add t.lint_cache key r);
        r)
  in
  match report.incomplete with
  | Some what -> Error (Analysis_incomplete what)
  | None -> (
    match
      List.filter
        (fun (d : Lint.diagnostic) -> d.severity = Lint.Error)
        report.diagnostics
    with
    | [] -> Ok ()
    | errors -> Error (Lint_rejected errors))

let avoidance_of_plan ~epoch mode g (plan : Compiler.plan) =
  let stamp th = Thresholds.with_epoch th epoch in
  match mode with
  | No_avoidance -> Engine.No_avoidance
  | Propagation ->
    Engine.Propagation
      (stamp (Compiler.propagation_thresholds g plan.Compiler.intervals))
  | Non_propagation ->
    Engine.Non_propagation
      (stamp (Compiler.send_thresholds g plan.Compiler.intervals))

(* Admission step 2, and a reconfigure's table: the shared registry
   entry for [key]. One compile per distinct key; every later key-equal
   tenant gets the physically same avoidance value. The table stays
   bound to the first tenant's graph object — Thresholds compatibility
   is by fingerprint, so the pool accepts it for every structural twin.
   A miss compiles fresh on a new cache, or — given the edit [delta] —
   recompiles incrementally on the cache of the session's current entry
   (whose epoch is [delta.base]); either way the insert is first-wins
   and only the winner is counted. The stats are those of this call's
   compile, absent on a hit. *)
let resolve_entry t ((_, mode, backend) as key) ?delta g =
  match mode with
  | No_avoidance -> Ok None
  | Propagation | Non_propagation -> (
    match locked t (fun () -> Hashtbl.find_opt t.registry key) with
    | Some e -> Ok (Some (e, None))
    | None -> (
      let options =
        { t.options with Compiler.Options.fuse = false; backend }
      in
      let algorithm = lint_algorithm mode in
      let cache, eepoch, compiled =
        match delta with
        | None ->
          let cache = Compiler.cache_create () in
          (cache, 0, Compiler.compile_cached ~options cache algorithm g)
        | Some delta ->
          let base_key =
            (Thresholds.graph_fingerprint delta.Edit.base, mode, backend)
          in
          let cache, epoch =
            match locked t (fun () -> Hashtbl.find_opt t.registry base_key) with
            | Some e -> (e.cache, e.eepoch)
            | None -> (Compiler.cache_create (), 0)
          in
          (cache, epoch + 1, Compiler.recompile ~options cache algorithm delta)
      in
      match compiled with
      | Error e -> Error (Plan_rejected e)
      | Ok (plan, stats) ->
        let entry =
          { av = avoidance_of_plan ~epoch:eepoch mode g plan; cache; eepoch }
        in
        locked t (fun () ->
            match Hashtbl.find_opt t.registry key with
            | Some prior -> Ok (Some (prior, Some stats))
            | None ->
              Hashtbl.add t.registry key entry;
              (match delta with
              | None -> t.compiles <- t.compiles + 1
              | Some _ ->
                t.recompiles <- t.recompiles + 1;
                Option.iter
                  (fun (lp : Fstream_core.Lp.resolve_stats) ->
                    t.warm_pivots <- t.warm_pivots + lp.rpivots)
                  stats.Compiler.lp_stats);
              Ok (Some (entry, Some stats)))))

let admit t ?name ?spec ?backend ~mode g =
  let backend =
    match backend with
    | Some b -> b
    | None -> t.options.Compiler.Options.backend
  in
  let fp = Thresholds.graph_fingerprint g in
  (match spec with
  | Some (s : App_spec.t)
    when Thresholds.graph_fingerprint s.graph <> fp ->
    invalid_arg "Serve.admit: spec describes a different graph"
  | _ -> ());
  let key = (fp, mode, backend) in
  let verdict =
    match lint_verdict t key ~spec g with
    | Error _ as e -> e
    | Ok () -> resolve_entry t key g
  in
  match verdict with
  | Error r ->
    locked t (fun () -> t.rejections <- t.rejections + 1);
    Error r
  | Ok entry ->
    let sname =
      locked t (fun () ->
          let id = t.tenants in
          t.tenants <- id + 1;
          match name with
          | Some n -> n
          | None -> Printf.sprintf "tenant-%d" id)
    in
    Ok
      {
        sname;
        smode = mode;
        sbackend = backend;
        server = t;
        slock = Mutex.create ();
        scond = Condition.create ();
        graph = g;
        savoidance =
          (match entry with
          | Some (e, _) -> e.av
          | None -> Engine.No_avoidance);
        sepoch = 0;
        job = None;
        awaiting = false;
        report = None;
      }

let name s = s.sname
let avoidance s = s.savoidance
let epoch s = s.sepoch

let graph s =
  Mutex.lock s.slock;
  let g = s.graph in
  Mutex.unlock s.slock;
  g

let start t ?sink ~kernels ~inputs s =
  Mutex.lock s.slock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock s.slock)
    (fun () ->
      if s.job <> None && s.report = None then
        invalid_arg (Printf.sprintf "Serve.start: session %s already started"
                       s.sname);
      let job =
        Pool.submit t.pool ~grain:t.grain ?sink ~graph:s.graph ~kernels
          ~inputs ~avoidance:s.savoidance ()
      in
      (* a collected report means the previous run reached its boundary;
         starting again launches the session's current epoch afresh *)
      s.report <- None;
      s.job <- Some job)

(* Join the session's in-flight run, calling [Pool.await] exactly once
   per job no matter how many threads need the boundary (user [await]s
   racing a [reconfigure] drain): the first claims the join with
   [awaiting]; the rest sleep on the condition until the report lands. *)
let collect s =
  Mutex.lock s.slock;
  let rec loop () =
    match s.report with
    | Some r ->
      Mutex.unlock s.slock;
      r
    | None -> (
      match s.job with
      | None ->
        Mutex.unlock s.slock;
        invalid_arg "Serve.await: session was never started"
      | Some job ->
        if s.awaiting then begin
          Condition.wait s.scond s.slock;
          loop ()
        end
        else begin
          s.awaiting <- true;
          Mutex.unlock s.slock;
          (match Pool.await job with
          | r ->
            Mutex.lock s.slock;
            s.report <- Some r;
            s.awaiting <- false;
            Condition.broadcast s.scond
          | exception e ->
            Mutex.lock s.slock;
            (* the job is dead and may not be awaited again *)
            s.job <- None;
            s.awaiting <- false;
            Condition.broadcast s.scond;
            Mutex.unlock s.slock;
            raise e);
          loop ()
        end)
  in
  loop ()

let await s = collect s

let run t ?sink ~kernels ~inputs s =
  start t ?sink ~kernels ~inputs s;
  await s

(* Hot reconfiguration: apply the edit script to the session's current
   topology, re-admit the result (same lint bar as the front door),
   resolve its table — registry hit, or incremental recompile against
   the session's current registry entry's cache — and only then drain
   the session to its run boundary and swap graph + table atomically.
   All the expensive work happens before the drain, so the window in
   which the session is unavailable is the tail of its own run. *)
let reconfigure t s ops =
  let reject r =
    locked t (fun () -> t.rejections <- t.rejections + 1);
    Error r
  in
  Mutex.lock s.slock;
  let base = s.graph in
  Mutex.unlock s.slock;
  match Edit.apply base ops with
  | Error msg -> reject (Edit_rejected msg)
  | Ok delta -> (
    let g = delta.Edit.graph in
    let key = (Thresholds.graph_fingerprint g, s.smode, s.sbackend) in
    match lint_verdict t key ~spec:None g with
    | Error r -> reject r
    | Ok () -> (
      match resolve_entry t key ~delta g with
      | Error r -> reject r
      | Ok resolved ->
        let av, stats =
          match resolved with
          | Some (e, stats) -> (e.av, stats)
          | None -> (Engine.No_avoidance, None)
        in
        (* drain to the run boundary: a started, uncollected session is
           joined here (its report stays cached for the user's await) *)
        Mutex.lock s.slock;
        let need_drain = s.job <> None && s.report = None in
        Mutex.unlock s.slock;
        if need_drain then ignore (collect s);
        Mutex.lock s.slock;
        s.graph <- g;
        s.savoidance <- av;
        s.sepoch <- s.sepoch + 1;
        Mutex.unlock s.slock;
        Ok stats))

let shutdown t = Pool.shutdown t.pool

type stats = {
  tenants : int;
  rejections : int;
  compiles : int;
  recompiles : int;
  warm_pivots : int;
}

let stats t =
  locked t (fun () ->
      {
        tenants = t.tenants;
        rejections = t.rejections;
        compiles = t.compiles;
        recompiles = t.recompiles;
        warm_pivots = t.warm_pivots;
      })
