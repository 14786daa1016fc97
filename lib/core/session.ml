type profile_key = { name : string; config : Pipeline.config }

type estimate_key = {
  pname : string;
  pconfig : Pipeline.config;
  opts : Pipeline.opts;
  watermarked : bool;
}

type variants_key = {
  vname : string;
  vconfig : Pipeline.config;
  eval_config : Pipeline.config option;
  vopts : Pipeline.opts;
}

(* Path sets are keyed WITHOUT the timing config: the instrumented binary
   depends only on the workload, so one enumeration serves every cell of a
   resolution × jitter sweep.  [pkey] is the per-model key Pipeline passes
   to the cache (procedure name, "watermarked:"-prefixed for the
   watermarked profiling image). *)
type paths_key = { wname : string; pkey : string }

type t = {
  pool : Par.Pool.t;
  owns_pool : bool;
  mutex : Mutex.t;
  compilations : (string, Mote_lang.Compile.t) Hashtbl.t;
  profiles : (profile_key, Pipeline.profile_run) Hashtbl.t;
  estimates : (estimate_key, Pipeline.estimation list * (string * int) list) Hashtbl.t;
  variants : (variants_key, Pipeline.variant list) Hashtbl.t;
  path_sets : (paths_key, Tomo.Paths.t) Hashtbl.t;
}

let create ?domains ?pool () =
  let pool, owns_pool =
    match pool with
    | Some p -> (p, false)
    | None -> (Par.Pool.create ?domains (), true)
  in
  {
    pool;
    owns_pool;
    mutex = Mutex.create ();
    compilations = Hashtbl.create 8;
    profiles = Hashtbl.create 16;
    estimates = Hashtbl.create 32;
    variants = Hashtbl.create 8;
    path_sets = Hashtbl.create 32;
  }

let close t = if t.owns_pool then Par.Pool.shutdown t.pool
let domains t = Par.Pool.domains t.pool
let map_list t f xs = Par.Pool.map_list t.pool f xs

(* Compute outside the lock so concurrent misses on different keys run
   in parallel; on a same-key race the first insert wins and the loser's
   (equal) candidate is dropped, keeping every caller's view identical. *)
let memo t tbl key compute =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt tbl key with
  | Some v ->
      Mutex.unlock t.mutex;
      v
  | None ->
      Mutex.unlock t.mutex;
      let candidate = compute () in
      Mutex.lock t.mutex;
      let v =
        match Hashtbl.find_opt tbl key with
        | Some winner -> winner
        | None ->
            Hashtbl.replace tbl key candidate;
            candidate
      in
      Mutex.unlock t.mutex;
      v

let compiled t (w : Workloads.t) =
  memo t t.compilations w.Workloads.name (fun () -> Workloads.compiled w)

let paths_cache t (w : Workloads.t) pkey compute =
  memo t t.path_sets { wname = w.Workloads.name; pkey } compute

(* The fully-loaded context for one workload: the session's pool plus its
   memoized path sets.  This is what outside callers driving Pipeline
   stages directly should thread. *)
let ctx t (w : Workloads.t) =
  Pipeline.Ctx.make ~pool:t.pool ~paths_cache:(paths_cache t w) ()

let profile t ?(config = Pipeline.default_config) (w : Workloads.t) =
  memo t t.profiles
    { name = w.Workloads.name; config }
    (fun () -> Pipeline.profile ~config ~compiled:(compiled t w) w)

let estimate t ?(opts = Pipeline.default_opts) ?(config = Pipeline.default_config)
    (w : Workloads.t) =
  let key = { pname = w.Workloads.name; pconfig = config; opts; watermarked = false } in
  fst
    (memo t t.estimates key (fun () ->
         let run = profile t ~config w in
         (Pipeline.estimate ~ctx:(ctx t w) ~opts run, [])))

let estimate_watermarked t ?(opts = Pipeline.default_opts)
    ?(config = Pipeline.default_config) (w : Workloads.t) =
  let key = { pname = w.Workloads.name; pconfig = config; opts; watermarked = true } in
  memo t t.estimates key (fun () ->
      let run = profile t ~config w in
      Pipeline.estimate_watermarked ~ctx:(ctx t w) ~opts run)

(* Placement reads the memoized estimation entry, so a caller that asks
   for both the estimates and the layouts of one key runs EM once. *)
let compare_layouts t ?eval_config ?(opts = Pipeline.default_opts)
    ?(config = Pipeline.default_config) (w : Workloads.t) =
  let key = { vname = w.Workloads.name; vconfig = config; eval_config; vopts = opts } in
  memo t t.variants key (fun () ->
      Pipeline.compare_estimated ~ctx:(ctx t w) ?eval_config (profile t ~config w)
        (estimate t ~opts ~config w))

let clear t =
  Mutex.lock t.mutex;
  Hashtbl.reset t.compilations;
  Hashtbl.reset t.profiles;
  Hashtbl.reset t.estimates;
  Hashtbl.reset t.variants;
  Hashtbl.reset t.path_sets;
  Mutex.unlock t.mutex
