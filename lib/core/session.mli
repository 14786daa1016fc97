(** The pipeline engine: memoized stage artifacts plus a domain pool.

    A [Session.t] owns every expensive artifact the evaluation reuses —
    compilations, probe-instrumented profile runs, per-procedure
    estimations, and the four-way layout comparisons — each memoized
    under a key of workload name plus the full {!Pipeline.config} (and,
    for estimation, the {!Pipeline.opts}).  Experiments that share a
    stage get it computed once per session instead of once per caller;
    this replaces the ad-hoc profile caches the bench harness used to
    keep privately.

    All stage computations are deterministic given their key, so the
    memo tables are also safe under the session's own parallelism: the
    tables are mutex-guarded, values are computed outside the lock, and
    when two domains race to fill a key the first insert wins — both
    candidates are equal anyway.

    Fan-out goes through the session's {!Par.Pool}: per-procedure
    estimation, the {!Pipeline.compare_layouts} layouts its shared
    evaluation run cannot score, and
    any caller-side sweep via {!map_list}.  Every task derives its
    randomness from its own key (workload seed, sweep index), never
    from a generator shared across tasks, so a session at [domains = 4]
    produces bit-identical tables to one at [domains = 1]. *)

type t

val create : ?domains:int -> ?pool:Par.Pool.t -> unit -> t
(** [create ()] builds a session with a fresh pool of
    {!Par.Pool.create}'s default size ([CODETOMO_DOMAINS] wins over
    [Domain.recommended_domain_count]).  [~domains] overrides the size;
    [~pool] adopts an existing pool instead (the caller keeps ownership
    and {!close} will not shut it down). *)

val close : t -> unit
(** Shut down the session's pool if the session created it.  The memo
    tables survive; further calls run serially. *)

val domains : t -> int

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Fan an arbitrary per-item computation through the session pool,
    preserving order (see {!Par.Pool.map_list}). *)

val compiled : t -> Workloads.t -> Mote_lang.Compile.t
(** Memoized {!Workloads.compiled}. *)

val paths_cache : t -> Workloads.t -> Pipeline.paths_cache
(** The session's memo hook for enumerated path sets, scoped to one
    workload.  Keyed {e without} the timing config — the instrumented
    binary depends only on the workload — so an entire resolution ×
    jitter sweep shares one enumeration (and one canonical-signature
    merge) per procedure.  {!estimate}, {!estimate_watermarked} and
    {!compare_layouts} pass it to the pipeline automatically; it is
    exposed for callers that enumerate on their own. *)

val ctx : t -> Workloads.t -> Pipeline.Ctx.t
(** The session's fully-loaded {!Pipeline.Ctx}: its pool plus its
    {!paths_cache} scoped to one workload.  Callers driving
    {!Pipeline} stages directly ([Fleet.Service] reads its path sets
    through {!Pipeline.path_set} with it) pass this one value instead of
    threading pool and cache separately. *)

val profile : t -> ?config:Pipeline.config -> Workloads.t -> Pipeline.profile_run
(** Memoized {!Pipeline.profile} keyed by workload name and config. *)

val estimate :
  t ->
  ?opts:Pipeline.opts ->
  ?config:Pipeline.config ->
  Workloads.t ->
  Pipeline.estimation list
(** Memoized per-procedure estimation of the (memoized) profile run,
    keyed additionally by the estimator options.  The per-procedure work
    fans out through the pool. *)

val estimate_watermarked :
  t ->
  ?opts:Pipeline.opts ->
  ?config:Pipeline.config ->
  Workloads.t ->
  Pipeline.estimation list * (string * int) list
(** Memoized {!Pipeline.estimate_watermarked} over the memoized profile
    run; never shares an entry with {!estimate}. *)

val compare_layouts :
  t ->
  ?eval_config:Pipeline.config ->
  ?opts:Pipeline.opts ->
  ?config:Pipeline.config ->
  Workloads.t ->
  Pipeline.variant list
(** Memoized {!Pipeline.compare_layouts}, once per (workload, config,
    eval config, options).  It places from the {!estimate} entry of the
    same (workload, config, options), so EM runs once for both:
    {!Pipeline.compare_estimated} of that entry.  One run of the natural
    binary scores the other layouts where the schedule guard allows, and
    those it cannot run on the pool. *)

val clear : t -> unit
(** Drop every memoized artifact (the pool is untouched). *)
