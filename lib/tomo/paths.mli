(** Bounded enumeration of program paths through a procedure model.

    A path is an entry→exit walk; its probability under θ is
    Π θ_k^taken_k (1−θ_k)^nottaken_k and its cost is the exact window
    duration the probes would measure if execution followed it.  Loops make
    the path space infinite, so enumeration bounds the visits per block
    ([max_visits]) and the total number of paths ([max_paths]); the EM
    estimator renormalizes over the enumerated set.  [truncated] reports
    whether anything was cut off — with geometrically-decaying loop
    probabilities the missing mass is the geometric tail.

    Besides the raw path array, enumeration builds the {e canonical} path
    set: paths with identical [(cost, taken, nottaken)] signatures merged
    into one weighted entry whose branch counts are stored sparsely (CSR
    style — index/count pairs for the nonzero entries only).  Loop bodies
    whose inner branches permute across iterations collapse combinatorially
    (e.g. 4096 raw paths → a couple hundred signatures), and every merged
    path has, by construction, the same prior and the same likelihood under
    any (θ, σ) — so estimators can evaluate priors, Gaussian terms and
    responsibilities once per signature instead of once per path. *)

type path = {
  cost : float;  (** Exact window cost along this path. *)
  taken : int array;  (** Per parameter: times the branch was taken. *)
  nottaken : int array;
}

(** The canonical path set, in first-occurrence order, as flat arrays
    built once by {!enumerate}, so estimator hot loops read contiguous
    memory.  Signature [s]'s taken counts are entries [taken_off.(s)] to
    [taken_off.(s + 1) − 1] of [taken_idx] / [taken_cnt] (parameters with
    a nonzero count, ascending), and likewise for not-taken. *)
type flat = {
  sig_cost : float array;  (** Shared window cost of the merged paths. *)
  sig_weight : float array;  (** How many raw paths carry the signature. *)
  taken_off : int array;  (** Length {!num_signatures} + 1. *)
  taken_idx : int array;
  taken_cnt : float array;
  nottaken_off : int array;
  nottaken_idx : int array;
  nottaken_cnt : float array;
}

type t

exception Too_complex of string
(** Raised when not even one complete path fits within the bounds. *)

val enumerate : ?max_paths:int -> ?max_visits:int -> ?max_steps:int -> Model.t -> t
(** Defaults: 4096 paths, 12 visits per block, unbounded steps.
    [max_steps] caps the number of DFS block expansions — the {e work} of
    enumeration, where [max_paths] only caps its {e output}.  On CFGs
    whose partial paths overwhelmingly die against [max_visits],
    exponentially many dead ends separate completed paths and an
    unbounded search effectively never returns; hitting the cap marks the
    result truncated (or raises {!Too_complex} if no path completed). *)

val model : t -> Model.t
val paths : t -> path array
val truncated : t -> bool

val signature_of_path : t -> int array
(** Raw path index → signature index in {!flat}.  Kernels that must
    reproduce a per-path fold bit-for-bit (the EM reference semantics)
    replay cheap per-path accumulations through this map while computing
    the expensive per-signature terms only once. *)

val num_signatures : t -> int

val flat : t -> flat
(** The signatures as flat arrays (shared, not copied: do not mutate). *)

val cost_order : t -> int array
(** The signature indices by ascending {!flat} cost, ties in index order,
    built once by {!enumerate} (shared: do not mutate).  {!Online.observe}
    walks it outward from an observation's nearest cost. *)

val log_prior : t -> theta:float array -> float array
(** Per-path log probability under θ (not renormalized). *)

val signature_log_prior :
  t -> log_t:float array -> log_f:float array -> float array -> unit
(** [signature_log_prior t ~log_t ~log_f out] fills [out] (length
    {!num_signatures}) with each signature's log prior given per-parameter
    log θ / log (1−θ) vectors, iterating only the sparse nonzero counts.
    Terms accumulate in ascending parameter order — taken then nottaken —
    which matches the dense {!log_prior} fold bit-for-bit (the dense
    loop's zero-count terms add ±0.0, an exact no-op). *)

val signature_log_prior_at :
  t -> log_t:float array -> log_f:float array -> float array -> int -> unit
(** [signature_log_prior_at t ~log_t ~log_f out s] sets [out.(s)] alone,
    to the bits {!signature_log_prior} gives it. *)

(** {1 Raw-order replay}

    The exact estimator kernels ({!Em.estimate}, {!Online.observe})
    compute priors, Gaussian terms and responsibilities once per
    signature, then replay the two cheap folds the per-path reference
    makes — the normalizer and the M-step accumulation — in raw
    enumeration order through {!signature_of_path}, so every partial sum
    rounds exactly as the dense fold did.  Both folds live here, once,
    and neither calls a closure per raw path.

    Every term of both folds is non-negative and both start from +0.0,
    so a term that is +0.0 changes no bit wherever it falls.  A caller
    that knows most signatures' terms are +0.0 can therefore walk only
    the others' raw paths, still in ascending raw order: the live walk
    of {!replay_accumulate}, and {!replay_live_normalizer} for the
    normalizer.  The walk marks the live raw paths in a bitset and
    visits the marked ones in order, so it costs the live paths plus
    one word per 62 raw paths, where the full fold costs every raw path
    (4096 on [ctp_rx_task]). *)

type sums = {
  mutable sq : float;  (** The running σ sum of {!replay_accumulate}. *)
  mutable gap_floor : float;
      (** Set by {!replay_gaps}: the smallest half gap (see {!skips}) of
          the taken and either accumulators. *)
  mutable sq_gap : float;  (** Set by {!replay_gaps}: the σ sum's half gap. *)
}
(** Floats a replay shares with its caller, kept in an all-float record
    so reading and writing them allocates nothing. *)

type replay
(** Per-caller scratch for replays over one path set.  The path set is
    shared and immutable; a [replay] is mutable and belongs to one
    estimator (one domain). *)

val replay : t -> replay
(** The chain strategy of {!replay_accumulate} needs a plan that costs
    about four full path walks to lay out.  A replay walks paths until
    it has done that much work, then builds the plan and caches it on
    the path set (safe to race from several domains; later replays adopt
    it at once).  Short estimates and consumers that never replay never
    pay for it. *)

val replay_sums : replay -> sums
(** The replay's σ-sum record (the same record for the replay's whole
    life, so callers may hoist it). *)

val replay_normalizers : replay -> float array -> float array -> unit
(** [replay_normalizers rp w norms] treats [w] as rows of
    {!num_signatures} per-signature weights and sets [norms.(i)], for
    each [i < Array.length norms], to the sum over raw paths p, in
    enumeration order, of row i's weight for p's signature, summed from
    +0.0.  Rows are independent sums, so several run side by side. *)

val replay_live_normalizer : replay -> float array -> live:int array -> int -> float
(** [replay_live_normalizer rp w ~live n] is the sum, in raw enumeration
    order from +0.0, of [w.(s)] over the raw paths of the signatures
    [live.(0)] to [live.(n − 1)] (distinct, in any order).  Where every
    other signature's weight is +0.0 and every weight is non-negative,
    it has the bits of {!replay_normalizers}' single row. *)

val replay_accumulate :
  replay ->
  threshold:float ->
  resp:float array ->
  sq:float array ->
  taken:float array ->
  either:float array ->
  unit
(** [replay_accumulate rp ~threshold ~resp ~sq ~taken ~either] leaves
    the accumulators exactly as the dense per-path loop does when it adds,
    for each raw path p of signature s with [resp.(s) > threshold] and in
    enumeration order: [resp.(s) × count] to [taken.(j)] and [either.(j)]
    for each taken branch j, then to [either.(j)] for each not-taken
    branch j (ascending j), and [sq.(s)] to [(replay_sums rp).sq].  Each
    accumulator's bits are those of its terms added in that order.
    [resp] and [sq] have one entry per signature, [taken] and [either]
    one per parameter; every [sq.(s)] of a signature over the threshold
    must be non-negative, and every accumulator must hold a non-negative
    sum (not −0.0): the kernel may add +0.0 to it.

    Terms that cannot change a bit are skipped.  All terms are
    non-negative, so while one call runs each accumulator only grows from
    the value a it held on entry, and the gap up to the next float never
    shrinks: a term x with [skips a x] is a no-op wherever it falls.  A
    signature is dead for the call when [resp.(s)] times its largest
    count is such a term for every taken and either accumulator it
    touches, and [sq.(s)] is one for the σ sum.  Path sets whose
    signatures merge too few raw paths for this to pay never look (see
    {!replay_gaps}).

    Two strategies give the same bits, and the cheaper one for the live
    signatures' work runs: walk only the live signatures' raw paths, in
    ascending raw order (a bitset over the raw paths: cost in live paths
    plus one word per 62 paths); or, when most terms are live (the first
    value of an EM iteration, whose accumulators are all 0), run each
    accumulator's terms as an independent chain, several chains side by
    side in registers. *)

val replay_gaps : replay -> taken:float array -> either:float array -> bool
(** [replay_gaps rp ~taken ~either] sets [gap_floor] and [sq_gap] of
    {!replay_sums} for the accumulators as they stand, so a caller can
    tell which responsibilities the next {!replay_accumulate} would skip
    before computing them.  It returns [false], and sets nothing, for a
    replay that never skips terms: on a path set whose signatures merge
    too few raw paths, looking for no-op terms costs more than a full
    walk, so only the threshold decides which signatures are live. *)

val skips : float -> float -> bool
(** [skips a x]: [a +. x = a] in round-to-nearest, for a non-negative
    accumulator [a] (not −0.0) and a non-negative term [x], and stays
    true after any non-negative terms are added to [a].  True when [x]
    is zero, or below half the gap from [a] up to the next float (a
    strict bound: a tie may round up).  False whenever [x] is NaN or ∞,
    and, for non-zero [x], whenever [a] is NaN, ∞ or {!Float.max_float}. *)

val prior_mass : t -> theta:float array -> float
(** Total probability of the enumerated set — 1 minus truncation loss. *)

val min_cost : t -> float
val max_cost : t -> float

val sample_costs :
  Stats.Rng.t -> t -> theta:float array -> n:int -> float array
(** Draw path costs according to the (renormalized) path distribution —
    synthetic timing observations for tests. *)
