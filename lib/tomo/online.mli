(** Streaming estimation with bounded memory — what actually runs on the
    mote (or its gateway) when samples arrive one at a time.

    Instead of storing the timing stream and re-running batch EM, the
    online estimator keeps per-parameter sufficient statistics (expected
    taken / total traversals) and updates them with a stochastic-EM step
    per observation: compute the path posterior under the current θ, add
    the responsibilities, decay everything by a forgetting factor.  Memory
    is O(signatures + parameters) regardless of stream length (the path
    set itself is shared, not copied), and the decay makes the estimate
    track nonstationary inputs — a recursive sibling of {!Windowed}.

    Each observation works on the canonical path set
    ({!Paths.flat}): prior, Gaussian term and responsibility are
    computed once per signature, and only the cheap normalizer sum and
    sufficient-statistic updates are replayed per raw path, in
    enumeration order ({!Paths.replay_normalizers},
    {!Paths.replay_accumulate} — the same replay batch EM uses, which
    visits only the raw paths whose updates can change a bit).  The
    result is bit-identical to the per-path update ({!Dense}) — on
    [ctp_rx_task], 176 signatures stand for 4096 raw paths.

    {b The reach band.}  An observation weighs only the signatures
    within reach of its value.  Every log prior is ≤ 0, so a
    signature's Gaussian term −z²/2 − log σ − ½ log 2π bounds its log
    weight from above.  Starting from the nearest cost in
    {!Paths.cost_order}, the observation weighs signatures outward, the
    nearer side first, and stops at the first whose bound trails the
    best log weight found so far by more than 746 + 1: every signature
    left out would have an [exp] that underflows to 0.0 and a
    responsibility under the replay's cut.  The normalizer then sums
    only the live signatures' raw paths, in ascending raw order
    ({!Paths.replay_live_normalizer}); the terms it skips are +0.0, so
    θ and the effective weight keep the bits of {!Dense}.  At the σ of
    a jitter-free timer (0.1) an observation of [ctp_rx_task] reaches
    one or two signatures.

    {b When every signature is weighed.}  Before the walk, the band is
    estimated from the nearest signature's weight (a lower bound on the
    best), and one cost rule compares its signatures and raw paths with
    weighing every signature and summing every raw path.  When the band
    would cost as much — a wide σ (on [ctp_rx_task], nearly every
    observation at timer jitter 8 and about a third at jitter 4), a set
    of a few signatures ([sense_task]'s 2), or a value that is NaN or
    infinite — the observation weighs every signature, as it always
    did.  The choice is made per observation
    and needs no option. *)

type t

val create : ?decay:float -> ?sigma:float -> Paths.t -> t
(** [decay] in (0,1]: per-observation forgetting factor (1.0 = plain
    running averages; default 0.999 ≈ an effective window of ~1000
    samples).  [sigma] is the timing-noise scale (default 1.0).
    @raise Invalid_argument on a decay outside (0,1] or a σ that is not
    positive and finite (NaN fails both checks). *)

val observe : t -> float -> unit
(** Feed one end-to-end timing observation.  Its cost follows the
    signatures within reach of the value (see the reach band above),
    not the number of raw paths, unless the band is too wide to pay. *)

val observe_all : t -> float array -> unit

val theta : t -> float array
(** Current estimate (0.5 for parameters with no evidence yet). *)

val observations : t -> int

val effective_weight : t -> float
(** Decayed total evidence mass — small right after a drift when decay has
    washed out the old regime. *)

(** The per-raw-path reference update the signature kernel reproduces:
    after any sequence of observations, {!theta} and {!effective_weight}
    agree to the bit whichever of the two fed the estimator.  Kept for
    the equivalence tests and the differential fuzzer; it allocates
    O(paths) per observation. *)
module Dense : sig
  val observe : t -> float -> unit
end
