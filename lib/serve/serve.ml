open Fstream_graph
module Lint = Fstream_analysis.Lint
module Compiler = Fstream_core.Compiler
module Thresholds = Fstream_core.Thresholds
module Engine = Fstream_runtime.Engine
module Report = Fstream_runtime.Report
module Pool = Fstream_parallel.Parallel_engine.Pool
module App_spec = Fstream_workloads.App_spec

type mode = No_avoidance | Propagation | Non_propagation

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

(* A key's spec-less admission outcome: the plan lint audited (what a
   spec'd admission re-lints against) and the verdict — the entry every
   key-equal tenant shares, or the rejection. *)
type outcome = {
  plan : (Compiler.plan, Compiler.error) result;
  verdict : (entry, rejection) result;
}

(* (graph fingerprint, mode, backend) *)
type key = int * mode * Compiler.backend

type t = {
  pool : Pool.t;
  options : Compiler.Options.t;
  lock : Mutex.t; (* registry, counters *)
  (* The key covers the backend as well as (fingerprint, mode): the
     verdict depends on it (FS201 is a Warning under [Lp], an Error
     otherwise) and so does the table (the backends compute different
     intervals) — a per-tenant backend override or an epoch-scoped
     option change must never be served another backend's outcome. *)
  registry : (key, outcome) Hashtbl.t;
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
  rlock : Mutex.t; (* serializes the session's reconfigures *)
  mutable graph : Graph.t;
  mutable savoidance : Engine.avoidance;
  mutable sepoch : int;
  mutable job : Pool.job option;
  mutable report : Report.t option;
}

let create ?domains ?(options = Compiler.Options.default) () =
  {
    pool = Pool.create ?domains ();
    options;
    lock = Mutex.create ();
    registry = Hashtbl.create 64;
    tenants = 0;
    rejections = 0;
    compiles = 0;
    recompiles = 0;
    warm_pivots = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* The algorithm a mode compiles, lints and builds its table under. *)
let algorithm_of_mode = function
  | Propagation -> Compiler.Propagation
  | Non_propagation | No_avoidance -> Compiler.Non_propagation

let lint ?plan (_, mode, backend) ~spec g =
  let algorithm = algorithm_of_mode mode in
  Lint.run ~config:{ Lint.default_config with algorithm; backend; spec } ?plan g

(* The admission bar, in order: an analysis that could not finish, then
   Error findings, then a failed compile. *)
let verdict_of (report : Lint.report) compiled =
  match report.incomplete with
  | Some what -> Error (Analysis_incomplete what)
  | None -> (
    match
      List.filter
        (fun (d : Lint.diagnostic) -> d.severity = Lint.Error)
        report.diagnostics
    with
    | [] -> Result.map_error (fun e -> Plan_rejected e) compiled
    | errors -> Error (Lint_rejected errors))

let avoidance_of_plan ~epoch mode g (plan : Compiler.plan) =
  let table () =
    Thresholds.with_epoch
      (Compiler.thresholds (algorithm_of_mode mode) g plan.Compiler.intervals)
      epoch
  in
  match mode with
  | No_avoidance -> Engine.No_avoidance
  | Propagation -> Engine.Propagation (table ())
  | Non_propagation -> Engine.Non_propagation (table ())

(* The registry outcome for [key]. A hit is reused as it stands: no
   compile, no lint. A miss compiles fresh on a new cache, or — given
   the edit [delta] — recompiles incrementally on a fork of the cache of
   the session's current entry (whose epoch is [delta.base]); lints that
   exact plan; and registers the outcome first-wins. Only a winning
   admitted outcome counts as a compile or recompile, and every later
   key-equal tenant gets the physically same avoidance value, bound to
   the first tenant's graph object (Thresholds compatibility is by
   fingerprint, so the pool accepts it for every structural twin). The
   compile stops at lint's cycle budget: a graph whose exact route
   enumerates more is rejected as incomplete anyway. The stats are
   those of this call's compile, absent on a hit. *)
let resolve t ((_, mode, backend) as key) ?delta g =
  match locked t (fun () -> Hashtbl.find_opt t.registry key) with
  | Some o -> (o, None)
  | None -> (
    let options =
      {
        t.options with
        Compiler.Options.fuse = false;
        backend;
        max_cycles =
          min t.options.max_cycles Lint.default_config.Lint.max_cycles;
      }
    in
    let algorithm = algorithm_of_mode mode in
    let cache, eepoch, compiled =
      match delta with
      | None ->
        let cache = Compiler.cache_create () in
        (cache, 0, Compiler.compile_cached ~options cache algorithm g)
      | Some delta ->
        let base_key =
          (Thresholds.graph_fingerprint delta.Edit.base, mode, backend)
        in
        (* a fork: the base entry's cache keeps the base epoch whatever
           lint makes of this one, so a refused edit leaves it intact
           for the session's next recompile *)
        let cache, epoch =
          match locked t (fun () -> Hashtbl.find_opt t.registry base_key) with
          | Some { verdict = Ok e; _ } ->
            (Compiler.cache_fork e.cache, e.eepoch)
          | _ -> (Compiler.cache_create (), 0)
        in
        (cache, epoch + 1, Compiler.recompile ~options cache algorithm delta)
    in
    let plan = Result.map fst compiled in
    let entry plan =
      { av = avoidance_of_plan ~epoch:eepoch mode g plan; cache; eepoch }
    in
    let verdict =
      Result.map entry (verdict_of (lint ~plan key ~spec:None g) plan)
    in
    let stats = Result.to_option (Result.map snd compiled) in
    locked t (fun () ->
        match Hashtbl.find_opt t.registry key with
        | Some prior -> (prior, stats)
        | None ->
          Hashtbl.add t.registry key { plan; verdict };
          (match (verdict, stats, delta) with
          | Ok _, Some _, None -> t.compiles <- t.compiles + 1
          | Ok _, Some stats, Some _ ->
            t.recompiles <- t.recompiles + 1;
            Option.iter
              (fun (lp : Fstream_core.Lp.resolve_stats) ->
                t.warm_pivots <- t.warm_pivots + lp.rpivots)
              stats.Compiler.lp_stats
          | _ -> ());
          ({ plan; verdict }, stats)))

(* Admission — the front door's and a reconfigure's: the avoidance
   value [key]'s tenants run under, and the stats of any compile it
   took. A spec brings tenant-specific behaviours (rules FS401-FS403),
   so a spec'd admission re-lints against the registry outcome's plan,
   never compiling again. [No_avoidance] needs no table: lint alone
   decides, on its own compile, and nothing is registered. *)
let admission t ((_, mode, _) as key) ?delta ~spec g =
  match mode with
  | No_avoidance ->
    (verdict_of (lint key ~spec g) (Ok Engine.No_avoidance), None)
  | Propagation | Non_propagation ->
    let o, stats = resolve t key ?delta g in
    let admitted =
      match spec with
      | None -> o.verdict
      | Some _ ->
        Result.bind
          (verdict_of (lint ~plan:o.plan key ~spec g) o.plan)
          (fun _ -> o.verdict)
    in
    (Result.map (fun e -> e.av) admitted, stats)

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
  match fst (admission t (fp, mode, backend) ~spec g) with
  | Error r ->
    locked t (fun () -> t.rejections <- t.rejections + 1);
    Error r
  | Ok savoidance ->
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
        rlock = Mutex.create ();
        graph = g;
        savoidance;
        sepoch = 0;
        job = None;
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
        Pool.submit t.pool ?sink ~graph:s.graph ~kernels ~inputs
          ~avoidance:s.savoidance ()
      in
      (* a collected report means the previous run reached its boundary;
         starting again launches the session's current epoch afresh *)
      s.report <- None;
      s.job <- Some job)

(* Join the session's in-flight run. Any number of threads may be in
   [Pool.await] on one job at once (user [await]s racing a [reconfigure]
   drain); each gets the job's report, and the first back caches it as
   the session's, unless a [start] has already replaced the job. *)
let collect s =
  Mutex.lock s.slock;
  match (s.report, s.job) with
  | Some r, _ ->
    Mutex.unlock s.slock;
    r
  | None, None ->
    Mutex.unlock s.slock;
    invalid_arg "Serve.await: session was never started"
  | None, Some job -> (
    Mutex.unlock s.slock;
    let current () = match s.job with Some j -> j == job | None -> false in
    match Pool.await job with
    | r ->
      Mutex.lock s.slock;
      if current () then s.report <- Some r;
      Mutex.unlock s.slock;
      r
    | exception e ->
      Mutex.lock s.slock;
      (* the job is dead and may not be awaited again *)
      if current () then s.job <- None;
      Mutex.unlock s.slock;
      raise e)

let await s = collect s

let run t ?sink ~kernels ~inputs s =
  start t ?sink ~kernels ~inputs s;
  await s

(* Hot reconfiguration: apply the edit script to the session's current
   topology, re-admit the result (same bar as the front door: a registry
   hit, or an incremental recompile against the session's current
   registry entry's cache, linted), and only then drain the session to
   its run boundary and swap graph + table atomically. All the expensive
   work happens before the drain, so the window in which the session is
   unavailable is the tail of its own run. A session's reconfigures run
   one at a time ([rlock]), so each edits the epoch the previous one
   produced; the swap happens under [slock] with no run in flight, so a
   [start] racing the drain is drained too rather than left running on
   the old graph. *)
let reconfigure t s ops =
  let reject r =
    locked t (fun () -> t.rejections <- t.rejections + 1);
    Error r
  in
  Mutex.lock s.rlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.rlock) @@ fun () ->
  match Edit.apply (graph s) ops with
  | Error msg -> reject (Edit_rejected msg)
  | Ok delta -> (
    let g = delta.Edit.graph in
    let key = (Thresholds.graph_fingerprint g, s.smode, s.sbackend) in
    match admission t key ~delta ~spec:None g with
    | Error r, _ -> reject r
    | Ok av, stats ->
      (* drain to the run boundary: a started, uncollected session is
         joined here (its report stays cached for the user's await) *)
      let rec swap () =
        Mutex.lock s.slock;
        if s.job <> None && s.report = None then begin
          Mutex.unlock s.slock;
          ignore (collect s);
          swap ()
        end
        else begin
          s.graph <- g;
          s.savoidance <- av;
          s.sepoch <- s.sepoch + 1;
          Mutex.unlock s.slock
        end
      in
      swap ();
      Ok stats)

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
