module Freq = Cfgir.Freq
module Cfg = Cfgir.Cfg
module Program = Mote_isa.Program
module Asm = Mote_isa.Asm
module Isa = Mote_isa.Isa
module Machine = Mote_machine.Machine
module Devices = Mote_machine.Devices
module Node = Mote_os.Node

type config = {
  seed : int;
  horizon : int option;
  timer_resolution : int;
  timer_jitter : float;
  prediction : Machine.prediction;
  faults : Profilekit.Transport.config option;
}

let default_config =
  {
    seed = 42;
    horizon = None;
    timer_resolution = 1;
    timer_jitter = 0.0;
    prediction = Machine.Predict_not_taken;
    faults = None;
  }

type profile_run = {
  workload : Workloads.t;
  compiled : Mote_lang.Compile.t;
  instrumented : Program.t;
  config : config;
  samples : (string * float array) list;
  oracle_thetas : (string * float array) list;
  oracle_freqs : (string * Freq.t) list;
  invocations : (string * int) list;
  node_stats : Node.run_stats;
  transport : Profilekit.Transport.stats option;
  discarded : int;
}

let noise_sigma config =
  Tomo.Em.default_sigma ~resolution:config.timer_resolution ~jitter:config.timer_jitter

let horizon_of config (w : Workloads.t) =
  match config.horizon with
  | None -> w.Workloads.horizon
  | Some h when h > 0 -> h
  | Some h -> invalid_arg (Printf.sprintf "Pipeline: horizon must be positive, got %d" h)

let make_machine ~config binary =
  let devices =
    Devices.create ~timer_resolution:config.timer_resolution
      ~timer_jitter:config.timer_jitter
      ~rng:(Stats.Rng.create (config.seed + 7919))
      ()
  in
  Machine.create ~prediction:config.prediction ~program:binary ~devices ()

let make_node ~config ~(workload : Workloads.t) machine =
  let env =
    Env.create { (workload.Workloads.env_config) with Env.seed = config.seed }
  in
  Node.create ~machine ~env ~tasks:workload.Workloads.tasks ()

(* Fan a per-item computation through a pool when one is given; the
   serial path is the same code, so results are identical either way. *)
let pmap ?pool f xs =
  match pool with
  | Some pool -> Par.Pool.map_list pool f xs
  | None -> List.map f xs

(* Telemetry collection.  A clean config reads the probe log with the
   strict collector (whose Unbalanced check is a real invariant there);
   with a fault model the raw log first crosses the simulated link, then
   the resynchronizing collector pairs up what survived.  The transport
   seed is derived from the profiling seed, not equal to it, so the link
   noise is independent of the environment's draws. *)
let collect_telemetry ~config ~program ~devices =
  match config.faults with
  | None -> (Profilekit.Probes.collect ~program ~devices, None, 0)
  | Some faults ->
      let records, stats =
        Profilekit.Transport.perturb ~seed:(config.seed + 104729) faults
          (Devices.probe_log devices)
      in
      let r =
        Profilekit.Probes.collect_lossy_records ~program
          ~resolution:(Devices.timer_resolution devices)
          records
      in
      (r.Profilekit.Probes.samples, Some stats, r.Profilekit.Probes.discarded)

(* Evaluation runs ({!run_binary}) build the same node but skip the
   oracle, whose branch hook would slow them. *)
let simulate config (workload : Workloads.t) binary =
  let machine = make_machine ~config binary in
  let node = make_node ~config ~workload machine in
  let oracle = Profilekit.Oracle.attach machine in
  let node_stats = Node.run node ~until:(horizon_of config workload) in
  Profilekit.Oracle.detach oracle;
  (node_stats, Machine.devices machine, oracle)

let profile ?(config = default_config) ?compiled (workload : Workloads.t) =
  let compiled =
    match compiled with Some c -> c | None -> Workloads.compiled workload
  in
  let instrumented_items = Profilekit.Probes.instrument compiled.Mote_lang.Compile.items in
  let instrumented = Asm.assemble instrumented_items in
  let node_stats, devices, oracle = simulate config workload instrumented in
  let sample_set, transport, discarded =
    collect_telemetry ~config ~program:instrumented ~devices
  in
  let samples =
    List.map
      (fun proc -> (proc, Profilekit.Probes.samples_for sample_set proc))
      workload.Workloads.profiled
  in
  (* Ground truth is expressed against the original binary's CFGs; branch
     order is instrumentation-invariant so the vectors line up. *)
  let original = compiled.Mote_lang.Compile.program in
  (* Invocation counts come from the probe stream itself (one window per
     invocation) — helper procedures are never posted as tasks, so the
     scheduler's counts would miss them. *)
  let invocations =
    List.map (fun (proc, s) -> (proc, Array.length s)) samples
  in
  let oracle_thetas =
    List.map
      (fun proc -> (proc, Profilekit.Oracle.theta_vector oracle ~proc))
      workload.Workloads.profiled
  in
  let oracle_freqs =
    List.map
      (fun proc ->
        let inv = float_of_int (Node.invocations node_stats proc) in
        let counts =
          Profilekit.Oracle.counts oracle ~proc
          |> List.map (fun (id, (tk, fl)) -> (id, (float_of_int tk, float_of_int fl)))
        in
        let cfg = Cfg.of_proc_name original proc in
        (proc, Profilekit.Flowcount.freq_of_branch_counts cfg ~invocations:inv ~counts))
      workload.Workloads.profiled
  in
  {
    workload;
    compiled;
    instrumented;
    config;
    samples;
    oracle_thetas;
    oracle_freqs;
    invocations;
    node_stats;
    transport;
    discarded;
  }

let model_of run proc = Tomo.Model.of_cfg (Cfg.of_proc_name run.instrumented proc)

type estimation = {
  proc : string;
  estimate : Tomo.Estimator.t;
  truth : float array;
  mae : float;
  sample_count : int;
  health : Tomo.Health.t;
  sanitize_report : Tomo.Sanitize.report option;
}

type opts = {
  method_ : Tomo.Estimator.method_;
  max_samples : int option;
  max_paths : int option;
  sanitize : bool;
  robust : bool;
  min_samples : int;
}

let default_opts =
  {
    method_ = Tomo.Estimator.Em;
    max_samples = None;
    max_paths = None;
    sanitize = false;
    robust = false;
    min_samples = 1;
  }

(* [max_samples] keeps the chronological prefix: the first N observation
   windows, as if profiling had simply stopped after N invocations (the
   stopping-rule assumption of {!Tomo.Confidence.samples_needed}). *)
let truncate_samples opts all =
  match opts.max_samples with
  | Some n when n >= 0 && Array.length all > n -> Array.sub all 0 n
  | _ -> all

type paths_cache = string -> (unit -> Tomo.Paths.t) -> Tomo.Paths.t

module Ctx = struct
  type nonrec t = { pool : Par.Pool.t option; paths_cache : paths_cache option }

  let none = { pool = None; paths_cache = None }
  let make ?pool ?paths_cache () = { pool; paths_cache }
  let of_pool pool = { pool = Some pool; paths_cache = None }
end

(* The instrumented binary — hence every per-procedure path model — depends
   only on the workload, not on the timing config, so a path set enumerated
   once serves the whole resolution × jitter grid.  The cache key is the
   procedure name (prefixed for the watermarked image, whose models differ);
   the owner of the cache closure is responsible for scoping it to one
   (workload, [max_paths]) pair. *)
let enumerate_paths (ctx : Ctx.t) opts ~key model =
  let enumerate () = Tomo.Paths.enumerate ?max_paths:opts.max_paths model in
  match ctx.Ctx.paths_cache with Some cache -> cache key enumerate | None -> enumerate ()

(* For EM the path set is materialized here (cached or not): the
   estimator needs it anyway, and the sanitizer reads its cost
   envelope. *)
let materialize_paths ctx opts ~key model =
  match opts.method_ with
  | Tomo.Estimator.Em -> Some (enumerate_paths ctx opts ~key model)
  | _ -> None

(* The per-procedure estimation stage, for any image's model (the plain
   and the watermarked profiling binaries differ):
   truncate → materialize paths → sanitize → sample floor → estimate →
   health verdict (sample floor, convergence, then the fitted noise
   against the timer's).  With every knob at its default this is the
   exact pipeline (no sanitization, a floor of 1 that only intercepts the
   empty-sample [Invalid_argument], the exact EM).  The EM path set also
   provides the sanitizer's cost envelope. *)
let estimate_samples ctx opts ~sigma ~key ~model ~truth ~proc samples =
  let samples = truncate_samples opts samples in
  let paths = materialize_paths ctx opts ~key model in
  let samples, sanitize_report =
    if not opts.sanitize then (samples, None)
    else
      let min_cost, max_cost =
        match paths with
        | Some p -> (Tomo.Paths.min_cost p, Tomo.Paths.max_cost p)
        | None -> (Float.neg_infinity, Float.infinity)
      in
      let kept, report = Tomo.Sanitize.run ~min_cost ~max_cost ~sigma samples in
      (kept, Some report)
  in
  let n = Array.length samples in
  let floor = Stdlib.max 1 opts.min_samples in
  let estimate, health =
    if n < floor then
      ( Tomo.Estimator.fallback model,
        Tomo.Health.judge ~min_samples:floor ~converged:true ~sample_count:n () )
    else
      let e =
        Tomo.Estimator.run ~method_:opts.method_ ~noise_sigma:sigma ?paths
          ~robust:opts.robust model ~samples
      in
      let verdict =
        Tomo.Health.judge ~min_samples:floor ~converged:e.Tomo.Estimator.converged
          ~sample_count:n ()
      in
      ( e,
        match e.Tomo.Estimator.sigma with
        | Some fitted -> Tomo.Health.apply_noise ~sigma:fitted ~noise:sigma verdict
        | None -> verdict )
  in
  let mae =
    if Array.length truth = 0 then 0.0
    else Stats.Metrics.mae estimate.Tomo.Estimator.theta truth
  in
  ( { proc; estimate; truth; mae; sample_count = n; health; sanitize_report },
    samples,
    paths )

let estimate_proc ?(ctx = Ctx.none) ?(opts = default_opts) run proc =
  estimate_samples ctx opts ~sigma:(noise_sigma run.config) ~key:proc
    ~model:(model_of run proc) ~truth:(List.assoc proc run.oracle_thetas) ~proc
    (List.assoc proc run.samples)

let first (e, _, _) = e

let estimate ?(ctx = Ctx.none) ?(opts = default_opts) run =
  pmap ?pool:ctx.Ctx.pool
    (fun proc -> first (estimate_proc ~ctx ~opts run proc))
    run.workload.Workloads.profiled

(* Ambiguous branches (equal-cost arms) in the coordinates of the
   probe-instrumented binary — the ones end-to-end timing cannot estimate
   without help.  These are the estimator's own models, so a cached path
   set is shared with {!estimate} under the same key. *)
let ambiguous_sites ?(ctx = Ctx.none) ?(opts = default_opts) run =
  List.concat_map
    (fun proc ->
      let model = model_of run proc in
      match enumerate_paths ctx opts ~key:proc model with
      | paths ->
          let id = Tomo.Identify.analyze paths in
          List.map (fun block -> (proc, block)) (Tomo.Identify.ambiguous_blocks id model)
      | exception Tomo.Paths.Too_complex _ -> [])
    run.workload.Workloads.profiled

let estimate_watermarked ?(ctx = Ctx.none) ?(opts = default_opts) run =
  let sites = ambiguous_sites ~ctx ~opts run in
  if sites = [] then (estimate ~ctx ~opts run, [])
  else begin
    (* Rebuild the profiling image with delay stubs on the ambiguous taken
       edges, then profile and estimate against that image's own model.
       Branch order is preserved by both transformations, so the estimates
       transfer to the original binary index-by-index. *)
    let probed_items = Profilekit.Probes.instrument run.compiled.Mote_lang.Compile.items in
    let watermarked_items = Profilekit.Watermark.instrument ~sites probed_items in
    let binary = Asm.assemble watermarked_items in
    let _, devices, oracle = simulate run.config run.workload binary in
    (* The watermarked telemetry crosses the same (possibly faulty) link
       as the plain profiling run's. *)
    let sample_set, _, _ = collect_telemetry ~config:run.config ~program:binary ~devices in
    let estimations =
      pmap ?pool:ctx.Ctx.pool
        (fun proc ->
          (* The watermarked image's models differ from the plain ones, so
             its cache entries live under a distinct key. *)
          first
            (estimate_samples ctx opts ~sigma:(noise_sigma run.config)
               ~key:("watermarked:" ^ proc)
               ~model:(Tomo.Model.of_cfg (Cfg.of_proc_name binary proc))
               ~truth:(Profilekit.Oracle.theta_vector oracle ~proc)
               ~proc
               (Profilekit.Probes.samples_for sample_set proc)))
        run.workload.Workloads.profiled
    in
    (estimations, sites)
  end

(* The original binary carries no probes, so its model has no probe
   residuals to correct for. *)
let freq_of_theta program ~proc ~theta ~invocations =
  let model =
    Tomo.Model.of_cfg ~call_residual:0 ~window_correction:0 (Cfg.of_proc_name program proc)
  in
  Tomo.Model.freq_of_theta model ~theta ~invocations

let estimated_freqs run estimations =
  List.map
    (fun e ->
      let inv = float_of_int (List.assoc e.proc run.invocations) in
      ( e.proc,
        freq_of_theta run.compiled.Mote_lang.Compile.program ~proc:e.proc
          ~theta:e.estimate.theta ~invocations:inv ))
    estimations

type variant = {
  label : string;
  binary : Program.t;
  stats : Machine.stats;
  taken_rate : float;
  taken_transfers : int;
  busy_cycles : int;
  idle_cycles : int;
  tx_words : int;
  flash_words : int;
  derived : bool;
}

let variant_of ~label binary machine (node_stats : Node.run_stats) =
  let stats = Machine.stats machine in
  {
    label;
    binary;
    stats;
    taken_rate = Machine.taken_transfer_rate stats;
    taken_transfers =
      stats.Machine.mispredicted_branches + stats.Machine.unconditional_transfers;
    busy_cycles = node_stats.Node.busy_cycles;
    idle_cycles = node_stats.Node.idle_cycles;
    tx_words = Devices.tx_count (Machine.devices machine);
    flash_words = Program.flash_words binary;
    derived = false;
  }

let run_binary ?(config = default_config) (workload : Workloads.t) binary ~label =
  let machine = make_machine ~config binary in
  let node = make_node ~config ~workload machine in
  variant_of ~label binary machine (Node.run node ~until:(horizon_of config workload))

let overhead ?(config = default_config) ?compiled (workload : Workloads.t) =
  let compiled =
    match compiled with Some c -> c | None -> Workloads.compiled workload
  in
  let base = compiled.Mote_lang.Compile.program in
  let image instrument = Asm.assemble (instrument compiled.Mote_lang.Compile.items) in
  let probes = image Profilekit.Probes.instrument in
  let edges = image Profilekit.Edges.instrument in
  let none =
    {
      Profilekit.Overhead.flash_words = Program.flash_words base;
      flash_overhead_words = 0;
      flash_overhead_pct = 0.0;
      ram_words = 0;
    }
  in
  let base_run = run_binary ~config workload base ~label:"none" in
  let row (run : variant) report =
    let pct =
      if base_run.busy_cycles = 0 then None
      else
        Some
          (100.0 *. float_of_int (run.busy_cycles - base_run.busy_cycles)
          /. float_of_int base_run.busy_cycles)
    in
    (run, report, pct)
  in
  [
    row base_run none;
    row (run_binary ~config workload probes ~label:"probes")
      (Profilekit.Overhead.probes_report ~base ~instrumented:probes);
    row (run_binary ~config workload edges ~label:"edges")
      (Profilekit.Overhead.edges_report ~base ~instrumented:edges);
  ]

let natural_binary run = run.compiled.Mote_lang.Compile.program

let placements ~profiles ~algorithm =
  List.map (fun (name, freq) -> (name, algorithm freq)) profiles

(* Invert a profile: heavy edges become light and vice versa, so chain
   merging actively separates hot pairs. *)
let invert_freq freq =
  let weights = Freq.weights freq in
  let max_w = List.fold_left (fun acc (_, w) -> Stdlib.max acc w) 0.0 weights in
  let out = Freq.create (Freq.cfg freq) ~invocations:(Freq.invocations freq) in
  List.iter
    (fun ((src, dst, kind), w) -> Freq.bump out ~src ~dst ~kind (max_w -. w))
    weights;
  out

let worst_placement freq =
  match Layout.Algorithms.pessimal freq with
  | p -> p
  | exception Invalid_argument _ ->
      Layout.Algorithms.pettis_hansen (invert_freq freq)

let worst_binary run =
  Layout.Rewrite.apply_all (natural_binary run) ~algorithm:worst_placement
    ~profiles:run.oracle_freqs

let fresh_inputs config = { config with seed = config.seed + 1000 }

(* A binary's counts are derived from the natural run only under the
   predict-not-taken model the delta tables count, and only when it never
   reads the clock: a timer read would return another value at the
   variant's clock. *)
let derivable config binary =
  config.prediction = Machine.Predict_not_taken
  && not
       (Array.exists
          (function Isa.In (_, Isa.P_timer) -> true | _ -> false)
          (Program.code binary))

(* One run of [natural] under [config] that also shadows each placed
   binary: the natural variant, and each placed binary with [Some]
   variant when its shadow stayed live, [None] when it must run in full.
   The branch hook adds each outcome's table entry to every placed
   binary's charge and taken count. *)
let run_shadowed ~config workload natural placed =
  let tables = Array.of_list (List.map snd placed) in
  let n = Array.length tables in
  let charges = Array.init n (fun _ -> { Node.cycles = 0; instructions = 0 }) in
  let taken = Array.make n 0 in
  let machine = make_machine ~config natural in
  Machine.set_branch_hook machine
    (Some
       (fun ~pc ~taken:outcome ->
         (* [i] is in bounds: the tables cover every pc of [natural]. *)
         let i = (2 * pc) + Bool.to_int outcome in
         for v = 0 to n - 1 do
           let d = Array.unsafe_get tables v and c = Array.unsafe_get charges v in
           c.Node.cycles <- c.Node.cycles + Array.unsafe_get d.Layout.Delta.cycles i;
           c.Node.instructions <- c.Node.instructions + Array.unsafe_get d.Layout.Delta.jumps i;
           Array.unsafe_set taken v (Array.unsafe_get taken v + Array.unsafe_get d.Layout.Delta.taken i)
         done));
  let node = make_node ~config ~workload machine in
  let shadows =
    Array.mapi
      (fun v c -> Node.shadow node ~entry:(fun proc -> List.assoc proc tables.(v).Layout.Delta.entries) c)
      charges
  in
  let node_stats = Node.run ~shadows node ~until:(horizon_of config workload) in
  Machine.set_branch_hook machine None;
  let base = variant_of ~label:"" natural machine node_stats in
  let derive v binary (node_stats : Node.run_stats) clock =
    let s = base.stats and jumps = charges.(v).Node.instructions and dt = taken.(v) in
    let stats =
      {
        s with
        Machine.instructions = s.Machine.instructions + jumps;
        cycles = clock;
        taken_cond_branches = s.Machine.taken_cond_branches + dt;
        mispredicted_branches = s.Machine.mispredicted_branches + dt;
        unconditional_transfers = s.Machine.unconditional_transfers + jumps;
      }
    in
    {
      base with
      binary;
      stats;
      taken_rate = Machine.taken_transfer_rate stats;
      taken_transfers = stats.Machine.mispredicted_branches + stats.Machine.unconditional_transfers;
      busy_cycles = node_stats.Node.busy_cycles;
      idle_cycles = node_stats.Node.idle_cycles;
      flash_words = Program.flash_words binary;
      derived = true;
    }
  in
  ( base,
    List.mapi
      (fun v (binary, _) ->
        ( binary,
          Option.map
            (fun (node_stats, clock) -> derive v binary node_stats clock)
            (Node.shadow_run node shadows.(v)) ))
      placed )

let evaluate_layouts ?(ctx = Ctx.none) config workload ~natural:(natural_label, natural) placed =
  let variants =
    (natural_label, natural, [])
    :: List.map
         (fun (label, placements) -> (label, Layout.Rewrite.program natural ~placements, placements))
         placed
  in
  (* Evaluation is deterministic given (binary, config), so each distinct
     binary is scored once and its dynamics are copied under every label
     that placed it (tomography often places exactly as the oracle
     profile does). *)
  let distinct =
    List.fold_left
      (fun acc (_, binary, placements) ->
        if List.mem_assoc binary acc then acc else (binary, placements) :: acc)
      [] variants
    |> List.rev
  in
  let others = List.tl distinct in
  let tables =
    if derivable config natural then
      List.fold_right
        (fun (binary, placements) acc ->
          match (acc, Layout.Delta.create natural ~placements) with
          | Some acc, Some d -> Some ((binary, d) :: acc)
          | _ -> None)
        others (Some [])
    else None
  in
  (* A binary no shadow could follow runs in full.  Each full run gets its
     own fresh machine/environment pair seeded from [config], so the runs
     are independent and fan out through the pool without changing any
     number. *)
  let full binaries =
    pmap ?pool:ctx.Ctx.pool
      (fun binary -> (binary, run_binary ~config workload binary ~label:""))
      binaries
  in
  let runs =
    match tables with
    | None -> full (List.map fst distinct)
    | Some placed ->
        let base, shadowed = run_shadowed ~config workload natural placed in
        let fallbacks =
          full (List.filter_map (function b, None -> Some b | _, Some _ -> None) shadowed)
        in
        (natural, base)
        :: List.map
             (function b, Some v -> (b, v) | b, None -> (b, List.assoc b fallbacks))
             shadowed
  in
  List.map
    (fun (label, binary, _) -> { (List.assoc binary runs) with label; binary })
    variants

let compare_layouts ?(ctx = Ctx.none) ?eval_config ?opts run =
  let eval_config =
    match eval_config with Some c -> c | None -> fresh_inputs run.config
  in
  let estimations = estimate ~ctx ?opts run in
  (* A Rejected procedure contributes no profile: Rewrite leaves an
     unprofiled procedure in its natural layout, which is exactly the
     graceful-degradation contract.  The variant label carries the
     fallback count so reports can't silently present a partial layout
     as a full tomography one. *)
  let usable, fallbacks =
    List.partition (fun e -> not (Tomo.Health.is_rejected e.health)) estimations
  in
  let tomo_label =
    match fallbacks with
    | [] -> "tomography"
    | fs -> Printf.sprintf "tomography[%d fallback]" (List.length fs)
  in
  let pettis_hansen profiles =
    placements ~profiles ~algorithm:Layout.Algorithms.pettis_hansen
  in
  evaluate_layouts ~ctx eval_config run.workload
    ~natural:("natural", natural_binary run)
    [
      ("worst", placements ~profiles:run.oracle_freqs ~algorithm:worst_placement);
      (tomo_label, pettis_hansen (estimated_freqs run usable));
      ("perfect", pettis_hansen run.oracle_freqs);
    ]
