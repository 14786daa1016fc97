(** The eight differential oracles of the fuzzing harness.

    Every oracle runs one generated program through two pipelines that the
    design says must agree, and reports where they do not:

    + {!optimize}: {!Mote_lang.Optimize} on vs. off — identical observable
      machine state and device traces;
    + {!rewrite}: {!Layout.Rewrite} under random placements — identical
      observables, identical layout-invariant statistics (only taken
      counts and bridging jumps may change), identical per-procedure probe
      sample counts;
    + {!em_agreement}: sparse {!Tomo.Em.estimate} vs. the dense reference
      {!Tomo.Em.Dense.estimate} — hex-float equality on every field of the
      result, trajectory included;
    + {!convergence}: estimated branch probabilities approach
      {!Markov.Walk} ground-truth frequencies as the sample count grows;
    + {!faults}: under a random bounded fault mix on the probe link, the
      transport is deterministic and well-accounted, lossy collection and
      the sanitized robust estimator never raise, health verdicts obey the
      sample floor, and no [Rejected] procedure is touched by placement;
    + {!streaming}: the resumable {!Profilekit.Probes.Collector} fed in
      random batch splits equals one-shot lossy collection, and the
      signature-space {!Tomo.Online} equals its per-path reference
      {!Tomo.Online.Dense} after every observation;
    + {!interpreter}: the interpreter loop behind
      {!Mote_machine.Machine.run_proc} equals the per-instruction
      {!Mote_machine.Machine.Reference} on every binary variant, both
      prediction policies, fuel exhaustion and memory faults;
    + {!layout_eval}: every layout {!Codetomo.Pipeline.evaluate_layouts}
      derives from one evaluation run equals a full
      {!Codetomo.Pipeline.run_binary} of its binary.

    Verdicts distinguish {!Skip} (the case structurally carries no signal
    for this oracle) from {!Fail} (a real disagreement, message included). *)

type verdict = Pass | Skip of string | Fail of string

type params = {
  invocations : int;  (** Task invocations per differential run. *)
  placement_rounds : int;  (** Random placements tried by {!rewrite}. *)
  em_invocations : int;  (** Task invocations feeding {!em_agreement}. *)
  max_paths : int;
  max_visits : int;  (** Path-enumeration bounds for oracles 3 and 4. *)
  em_max_iters : int;  (** EM iterations compared by {!em_agreement}. *)
  walk_samples : int;  (** Ground-truth walks drawn by {!convergence}. *)
  conv_max_paths : int;
  conv_max_visits : int;
      (** Enumeration bounds for {!convergence} — larger than the shared
          ones, since only the sparse estimator runs over them and
          truncation (renormalized estimates vs. untruncated walk ground
          truth) would otherwise force skips. *)
  enum_steps : int;
      (** Work cap ({!Tomo.Paths.enumerate} [max_steps]) for both path
          enumerations — fuzzed CFGs can make unbounded enumeration
          effectively diverge. *)
  conv_samples : int array;  (** Increasing sample sizes for {!convergence}. *)
  conv_tol : float;  (** Error bound at the largest sample size. *)
  conv_slack : float;  (** Allowed error growth between first and last. *)
}

val default_params : params

type observation = {
  vars : (string * int) list;
  arrays : (string * int array) list;
  tx : int list;
  leds : int;
  led_writes : int;
  stats : Mote_machine.Machine.stats;
}
(** Observable state after a run: globals and the task frame, array
    contents, radio TX log, LED port, and the raw statistics (the latter
    compared only through layout-invariant combinations). *)

val observe :
  env_seed:int ->
  invocations:int ->
  Mote_lang.Compile.t ->
  Mote_isa.Program.t ->
  (observation, string) result
(** Run [__init] then the task [invocations] times against a fresh
    environment and read the observable state back.  The compile result
    supplies the symbol tables; the binary may be any data-layout-
    preserving variant of it. *)

val optimize :
  params -> env_seed:int -> Mote_lang.Ast.program -> Mote_lang.Compile.t -> verdict

val rewrite : params -> Stats.Rng.t -> env_seed:int -> Mote_lang.Compile.t -> verdict

val em_agreement : params -> env_seed:int -> Mote_lang.Compile.t -> verdict

val convergence : params -> Stats.Rng.t -> Mote_lang.Compile.t -> verdict

val faults :
  params -> Stats.Rng.t -> env_seed:int -> Mote_lang.Compile.t -> verdict
(** The lossy-telemetry degradation oracle.  Draws a fault seed and a
    bounded random {!Profilekit.Transport.config} from its stream, runs
    the instrumented binary, perturbs the raw probe log, and asserts the
    graceful-degradation contract end to end: {!Profilekit.Transport}
    determinism and accounting, exception-free lossy collection,
    sanitizer report consistency, finite in-range robust-EM results, and
    a natural (bit-identical modulo relinking) layout for every
    procedure whose health verdict is [Rejected]. *)

val split_collect_mismatch :
  ?max_window:int ->
  program:Mote_isa.Program.t ->
  resolution:int ->
  split:(unit -> bool) ->
  Mote_machine.Devices.probe_record list ->
  string option
(** Feed the records through one {!Profilekit.Probes.Collector} (with
    [max_window] as given), draining
    before each record for which [split ()] (called once per record, in
    order) holds, and compare the concatenated drains and the final
    discarded-plus-open count with one
    {!Profilekit.Probes.collect_lossy_records} call.  Also checks, after
    every record, that no more frames are open than the program has
    procedures.  [Some msg] describes the first disagreement. *)

val online_mismatch :
  decay:float -> sigma:float -> Tomo.Paths.t -> float array -> string option
(** Feed the stream to a {!Tomo.Online} and to a {!Tomo.Online.Dense}
    estimator and compare θ and effective weight as hex floats after
    every observation.  [Some msg] names the first observation where
    they differ. *)

val streaming :
  params -> Stats.Rng.t -> env_seed:int -> Mote_lang.Compile.t -> verdict
(** The streaming-path oracle.  Draws a fault seed, a bounded random
    {!Profilekit.Transport.config}, a split density, a decay (1.0 or
    0.999) and a noise scale from its stream, then checks two
    equivalences on the instrumented binary's probe log:
    + the pristine log fed one record per batch, and the perturbed log
      fed one record per batch and in random splits, each yield exactly
      the samples (hex-float equal) and the discarded-plus-open total of
      one {!Profilekit.Probes.collect_lossy_records} call, with never
      more open frames than procedures;
    + for every procedure with branch parameters and a tractable path
      set, {!Tomo.Online} and {!Tomo.Online.Dense} fed its clean windows
      plus three values no path explains agree to the bit in θ and
      effective weight after every observation. *)

val interpreter_mismatch :
  ?prediction:Mote_machine.Machine.prediction ->
  ?mem_words:int ->
  ?fuel:int ->
  env:Env.config ->
  Mote_isa.Program.t ->
  string list ->
  string option
(** Invoke the procedures [calls] in order on two fresh machines (default
    4096 words, {!Mote_machine.Machine.Predict_not_taken}, [fuel] per
    call as in {!Mote_machine.Machine.run_proc}), one through
    {!Mote_machine.Machine.run_proc} and one through
    {!Mote_machine.Machine.Reference.run_proc}, each with its own devices,
    environment [env] and attached {!Profilekit.Oracle}.  Before call [i]
    both get the same radio word and idle time.  A run stops at its first
    fault.  Compares per-call cycles or fault messages, statistics,
    registers, all of memory, radio and probe logs, counters, LEDs and
    oracle branch counts; [Some msg] names the first disagreement. *)

val interpreter :
  params -> Stats.Rng.t -> env_seed:int -> Mote_lang.Compile.t -> verdict
(** The interpreter oracle.  Draws a random placement, a fuel budget
    (1–256) and a memory size (17–64 words) from its stream, then runs
    {!interpreter_mismatch} over [__init] plus [invocations] task calls
    for the natural, instrumented and randomly placed binaries under both
    prediction policies, the natural binary under the small fuel budget
    (out-of-fuel faults), and the instrumented binary in the small
    memory (load, store and stack faults).  Never skips. *)

val layout_eval :
  params ->
  Stats.Rng.t ->
  env_seed:int ->
  Mote_lang.Ast.program ->
  Mote_lang.Compile.t ->
  verdict * (int * int)
(** The layout-eval oracle.  Runs the generated program as a periodic
    task — period drawn up to twice one invocation's cycles, so about
    half the cases overload the node — plus, on a coin flip, a radio task
    under Poisson arrivals, for [invocations] task lengths, and evaluates
    the natural binary with [placement_rounds] random placements through
    {!Codetomo.Pipeline.evaluate_layouts}.  Every variant must equal a
    separate {!Codetomo.Pipeline.run_binary} of its binary, field by
    field.  Also returns how many distinct placed binaries were derived
    from the natural run and how many ran in full.  Skips only when the
    natural binary faults. *)
