(** End-to-end Code Tomography pipelines.

    This is the public face of the library: compile a workload, run its
    probe-instrumented binary on the simulated mote under its stochastic
    environment, estimate the Markov parameters from the end-to-end timing
    stream, turn the estimates into edge-frequency profiles, feed those to
    the placement pass, and measure what the re-laid-out binary actually
    does.  Each stage is also callable on its own. *)

module Freq = Cfgir.Freq

type config = {
  seed : int;  (** Environment seed for the profiling run. *)
  horizon : int option;
      (** Simulated cycles; default the workload's.  Simulating with
          [Some h], [h <= 0], raises [Invalid_argument]. *)
  timer_resolution : int;  (** Cycles per timer tick (F3 sweeps this). *)
  timer_jitter : float;  (** Gaussian timer noise, in cycles. *)
  prediction : Mote_machine.Machine.prediction;
      (** Static branch-prediction policy of the simulated core (ablation
          A11 compares them). *)
  faults : Profilekit.Transport.config option;
      (** Fault model for the probe uplink.  [None] reads the log
          intact with the strict collector; [Some] routes it through
          {!Profilekit.Transport.perturb} (seeded from [seed], but on an
          independent stream) and the resynchronizing lossy collector.
          The R13 experiment sweeps this. *)
}

val default_config : config
(** seed 42, workload horizon, resolution 1, no jitter, predict
    not-taken, no link faults. *)

(** {1 Stages}

    Each stage has exactly one implementation, here, which the CLI, the
    bench and [Fleet] compose: {!simulate}, {!estimate_proc},
    {!freq_of_theta}, {!fresh_inputs} with {!evaluate_layouts} (the one
    natural-versus-placed comparison; {!run_binary} scores a single
    binary), and {!overhead}. *)

(** {1 Profiling} *)

type profile_run = {
  workload : Workloads.t;
  compiled : Mote_lang.Compile.t;
  instrumented : Mote_isa.Program.t;
  config : config;
  samples : (string * float array) list;
      (** Exclusive end-to-end cycles per profiled procedure. *)
  oracle_thetas : (string * float array) list;
      (** Ground-truth taken probabilities, canonical branch order. *)
  oracle_freqs : (string * Freq.t) list;
      (** Ground-truth profiles on the {e original} binary's CFGs. *)
  invocations : (string * int) list;
  node_stats : Mote_os.Node.run_stats;
  transport : Profilekit.Transport.stats option;
      (** Link-fault accounting — [Some] iff the config carries a fault
          model. *)
  discarded : int;
      (** Probe windows the lossy collector had to abandon (0 on a clean
          link). *)
}

val simulate :
  config ->
  Workloads.t ->
  Mote_isa.Program.t ->
  Mote_os.Node.run_stats * Mote_machine.Devices.t * Profilekit.Oracle.t
(** [simulate config workload binary] is the simulate stage: one run of
    [binary] on a fresh node to the horizon, with [config]'s timer model
    and prediction policy, the workload's environment seeded from
    [config.seed] (the device RNG from a fixed offset of it), and the
    {!Profilekit.Oracle} counting every conditional branch.  Returns the
    scheduler's statistics, the devices (whose probe log is the run's raw
    telemetry) and the detached oracle, whose counts stay readable.
    [config.faults] is not read.  {!profile}, {!estimate_watermarked}
    and [Fleet.Sim.run_node] simulate through here; {!run_binary} does
    not, because its branch hook would slow evaluation. *)

val profile :
  ?config:config -> ?compiled:Mote_lang.Compile.t -> Workloads.t -> profile_run
(** Run the workload's probe-instrumented binary through {!simulate} and
    collect its telemetry (across the simulated link when [config.faults]
    is set).  [?compiled] reuses an existing compilation of the same
    workload (e.g. {!Session}'s memoized one) instead of recompiling. *)

val model_of : profile_run -> string -> Tomo.Model.t
(** Timing model of the instrumented procedure. *)

val noise_sigma : config -> float
(** The measurement-noise scale implied by the timer configuration. *)

(** {1 Estimation} *)

type estimation = {
  proc : string;
  estimate : Tomo.Estimator.t;
  truth : float array;
  mae : float;
  sample_count : int;  (** Samples actually estimated from (post-sanitize). *)
  health : Tomo.Health.t;
      (** Per-procedure verdict from the sample floor and estimator
          convergence.  A {!Tomo.Health.Rejected} procedure carries the
          uniform fallback estimate ({!Tomo.Estimator.fallback}) and is
          never rewritten by placement. *)
  sanitize_report : Tomo.Sanitize.report option;
      (** Quarantine accounting — [Some] iff estimation ran with
          [opts.sanitize]. *)
}

(** The estimator options: one value for every knob an estimating entry
    point ({!estimate}, {!estimate_watermarked}, {!compare_layouts} and
    their {!Session} mirrors) accepts.  The robustness knobs
    ([sanitize], [robust], [min_samples]) are opt-in: at {!default_opts}
    every result is bit-identical to the pre-robustness pipeline. *)
type opts = {
  method_ : Tomo.Estimator.method_;  (** Estimator; default EM. *)
  max_samples : int option;
      (** Keep the {e chronological prefix} — the first [max_samples]
          observation windows, exactly as if profiling had stopped once
          that many invocations had been seen.  This matches
          {!Tomo.Confidence.samples_needed}'s stopping-rule semantics
          (F2 sweeps "how long must we profile?", not "which windows do
          we keep?").  [None], a
          negative value, or one at least the sample count uses all
          samples. *)
  sanitize : bool;
      (** Quarantine infeasible timings ({!Tomo.Sanitize}) using the EM
          path set's cost envelope. *)
  robust : bool;
      (** Switch the EM to its contamination-robust variant. *)
  min_samples : int;
      (** The floor below which a procedure is {!Tomo.Health.Rejected} and
          given the uniform fallback estimate instead of an exception.
          With the default floor of 1 only the zero-sample case (which
          previously raised [Invalid_argument]) is intercepted. *)
}

val default_opts : opts
(** EM, every sample, no sanitizer, no outlier mixture, a floor of 1. *)

type paths_cache = string -> (unit -> Tomo.Paths.t) -> Tomo.Paths.t
(** A memo hook for enumerated path sets: [cache key enumerate] returns
    the cached set for [key] or computes, stores and returns
    [enumerate ()].  The instrumented binary — hence every per-procedure
    path model — depends only on the workload, never on the timing
    config, so one enumeration can serve an entire resolution × jitter
    sweep.  Keys are procedure names (the watermarked profiling image
    uses a ["watermarked:"] prefix since its models differ); the owner
    must scope the cache to a single workload — {!Session} does exactly
    this. *)

(** The execution context of a pipeline stage — the one value that
    carries everything a stage shares with its surroundings: the domain
    pool its fan-outs run on and the path-set memo it reads enumerated
    models from.

    A context changes scheduling and sharing only, never results: with
    no [?ctx] a stage computes the same values serially and from
    scratch. *)
module Ctx : sig
  type t

  val make : ?pool:Par.Pool.t -> ?paths_cache:paths_cache -> unit -> t
  (** Build a context from its parts; omitted parts mean "serial" /
      "uncached".  {!Session.ctx} builds the fully-loaded one. *)

  val of_pool : Par.Pool.t -> t
  (** Pool only — the common case for one-shot CLI runs. *)
end

val path_set : ?ctx:Ctx.t -> Mote_isa.Program.t -> string -> Tomo.Paths.t
(** [path_set image proc] is the EM path set of [proc] in the plain
    probe image [image] (the one {!profile} builds), enumerated at
    {!Tomo.Paths.enumerate}'s default bounds through [ctx]'s memo under
    the key [proc].  Estimation, {!ambiguous_sites} and [Fleet.Service]
    all read their path sets here, so a {!Session} context enumerates
    each procedure once.
    @raise Tomo.Paths.Too_complex as {!Tomo.Paths.enumerate}. *)

val estimate_proc :
  ?ctx:Ctx.t ->
  ?opts:opts ->
  profile_run ->
  string ->
  estimation * float array * Tomo.Paths.t option
(** [estimate_proc run proc] is the per-procedure estimation stage:
    truncate to [opts.max_samples] → the EM path set ({!path_set}) →
    sanitize → sample floor → estimate → health verdict.  Besides the estimation it returns the samples actually
    estimated from (after truncation and sanitizing) and the path set
    ([Some] iff the method is EM), so a caller can read intervals from or
    fit-check the very evidence the estimate saw without enumerating
    again — [ctomo report] does, and then places with the same
    estimations through {!compare_estimated}.  The verdict is
    {!Tomo.Health.Rejected} exactly when fewer samples than the floor
    remain; the estimate is then {!Tomo.Estimator.fallback}. *)

val estimate : ?ctx:Ctx.t -> ?opts:opts -> profile_run -> estimation list
(** {!estimate_proc} on every profiled procedure under [opts] (default
    {!default_opts}).  [ctx] supplies the domain pool the per-procedure
    estimations fan out over and the path-set memo they read; estimation
    is deterministic, so the result is identical with or without it. *)

val ambiguous_sites : ?ctx:Ctx.t -> profile_run -> (string * int) list
(** Branches whose probabilities end-to-end timing cannot determine
    (equal-cost arms), as [(procedure, branch block id)] in the
    instrumented binary's coordinates — see {!Tomo.Identify}.  Reads
    each procedure's {!path_set}. *)

val estimate_watermarked :
  ?ctx:Ctx.t -> ?opts:opts -> profile_run -> estimation list * (string * int) list
(** Like {!estimate}, but when {!ambiguous_sites} is non-empty the
    profiling image is rebuilt with {!Profilekit.Watermark} delay stubs on
    those branches and re-profiled, restoring identifiability.  Returns
    the estimations (aligned with the original branch order, as always)
    and the watermarked sites.  The production binary is untouched —
    watermarks exist only in the profiling build. *)

val freq_of_theta :
  Mote_isa.Program.t -> proc:string -> theta:float array -> invocations:float -> Freq.t
(** The θ → profile stage: the edge-frequency profile of [proc] on
    [program]'s CFG — expected edge visits per invocation under θ, times
    [invocations].  [program] is the original (uninstrumented) binary, so
    the model carries no probe corrections.
    @raise Not_found if [program] has no procedure [proc]. *)

val estimated_freqs : profile_run -> estimation list -> (string * Freq.t) list
(** {!freq_of_theta} for each estimation, on the run's original binary,
    with the run's observed invocation counts. *)

(** {1 Placement evaluation} *)

type variant = {
  label : string;
  binary : Mote_isa.Program.t;
  stats : Mote_machine.Machine.stats;
  taken_rate : float;
  taken_transfers : int;
      (** Absolute stalling-transfer count (mispredicted conditionals plus
          jumps) — the robust cross-layout metric:
          the rate's denominator itself changes with layout (bridge jumps
          add always-taken transfers), so a pessimal layout can show a
          {e lower} rate while stalling more. *)
  busy_cycles : int;
  idle_cycles : int;
  tx_words : int;  (** Radio payload words transmitted during the run. *)
  flash_words : int;
  derived : bool;
      (** [true] when the counts were derived from the natural binary's
          run ({!evaluate_layouts}), [false] when this binary ran in full.
          Every other field is the same either way. *)
}

val fresh_inputs : config -> config
(** The evaluation config for placement on fresh inputs: [config] with
    the environment seed moved 1000 on, so a layout is measured on new
    inputs from the distribution it was profiled on.  {!compare_layouts},
    [ctomo place --profile], the bench and [Fleet.Service] all evaluate
    through it. *)

val run_binary :
  ?config:config -> Workloads.t -> Mote_isa.Program.t -> label:string -> variant
(** Execute an arbitrary binary of the workload under the workload's
    environment (fresh machine, given seed) and collect its dynamics
    ([derived] is [false]). *)

val overhead :
  ?config:config ->
  ?compiled:Mote_lang.Compile.t ->
  Workloads.t ->
  (variant * Profilekit.Overhead.report * float option) list
(** The overhead stage (experiment T6): the workload's base binary, its
    probe image ({!Profilekit.Probes.instrument}) and its edge-counter
    image ({!Profilekit.Edges.instrument}), in that order, each run
    through {!run_binary} under [config] (default {!default_config}) and
    labelled ["none"], ["probes"] and ["edges"].  Each comes with its
    static {!Profilekit.Overhead.report} (the base's adds nothing) and
    its busy-cycle overhead over the base run, in percent — [None] when
    the base run is idle, since no ratio exists.  [?compiled] as in
    {!profile}. *)

val natural_binary : profile_run -> Mote_isa.Program.t

val worst_binary : profile_run -> Mote_isa.Program.t
(** Pessimal placement from the oracle profile (exhaustive on small
    procedures, inverted Pettis–Hansen above that). *)

val evaluate_layouts :
  ?ctx:Ctx.t ->
  config ->
  Workloads.t ->
  natural:string * Mote_isa.Program.t ->
  (string * (string * Layout.Placement.t) list) list ->
  variant list
(** [evaluate_layouts config workload ~natural:(label, binary) placed]
    evaluates [binary] and, for each [(label, placements)] of [placed],
    [Layout.Rewrite.program binary ~placements], all under [config]; the
    variants come back in that order, each equal field for field to
    {!run_binary} of its binary under [config] (bar [derived]).

    Evaluation is deterministic given the binary and the config, so each
    distinct binary is scored once and labels that share a binary share
    its dynamics.  [binary] runs once, in full.  Its run also follows
    every other distinct binary through {!Layout.Delta}'s tables and a
    {!Mote_os.Node} shadow, and a binary whose shadow stays live to the
    end gets its counts from that run ([derived = true]).  A binary whose
    shadow drops out runs in full, through [ctx]'s pool; so does every
    binary when [binary] reads the timer, when [config] predicts
    backward-taken/forward-not-taken (the tables count not-taken
    prediction only), or when {!Layout.Delta.create} finds no tables.  If
    a run raises, the exception is the one the full runs, in variant
    order, would raise first. *)

val compare_estimated :
  ?ctx:Ctx.t -> ?eval_config:config -> profile_run -> estimation list -> variant list
(** [compare_estimated run estimations] is the placement half of the
    T4/F5 experiment for one workload: natural, worst-case,
    tomography-guided (Pettis–Hansen on {!estimated_freqs} of
    [estimations]) and perfect-profile binaries, all evaluated through
    {!evaluate_layouts} under the same evaluation config (default:
    {!fresh_inputs} of the profiling config).  The natural binary runs
    once and the others are derived from its run where the schedule
    guard allows; [ctx]'s pool runs the rest.  Output is bit-identical to
    running every binary through {!run_binary}, serially or in parallel.

    An estimation whose health is {!Tomo.Health.Rejected} contributes
    {e no} profile to the tomography layout — the rewriter leaves its
    procedure in its natural placement — and the tomography variant's
    label becomes ["tomography[N fallback]"] so a partial layout is
    never mistaken for a full one. *)

val compare_layouts :
  ?ctx:Ctx.t -> ?eval_config:config -> ?opts:opts -> profile_run -> variant list
(** [compare_layouts run] is {!compare_estimated} of {!estimate} under
    [opts]: the whole T4/F5 experiment from a profile run. *)
