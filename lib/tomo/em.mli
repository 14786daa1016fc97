(** Expectation–maximization over the path mixture — the Code Tomography
    estimator proper.

    Each timing observation t is modelled as t = cost(π) + ε with π drawn
    from the path distribution under θ and ε Gaussian measurement noise
    (timer quantization + jitter).  The E-step computes path
    responsibilities per observation; the M-step re-estimates each branch
    probability as its expected traversal fraction and (optionally) the
    noise scale.  Observations are grouped by value first — quantized
    timings repeat heavily, making iterations O(distinct values × paths)
    instead of O(samples × paths).

    The kernels run over the {e canonical} path set ({!Paths.flat}):
    log priors, Gaussian terms and responsibilities are evaluated once per
    merged signature (with the per-iteration constants of the Gaussian
    log-pdf hoisted), while the normalizer and the M-step accumulation
    are replayed in raw enumeration order ({!Paths.replay_normalizers},
    {!Paths.replay_accumulate}).  Before exponentiating, a signature whose
    log weight trails the per-value maximum by more than 746 is skipped:
    its [exp] would underflow to exactly 0.0.  A responsibility too small
    to change any M-step accumulator (a log-domain bound against the
    accumulators' half gaps, {!Paths.skips}) is set to 0 without its
    [exp].  Neither skip changes a result bit: the result is bit-for-bit
    identical to the dense per-path reference.  An iteration allocates only θ-sized arrays and a
    few scalars — nothing per distinct value, signature or raw path. *)

type result = {
  theta : float array;
  sigma : float;
  iterations : int;
  log_likelihood : float;
  converged : bool;
  trajectory : (float array * float) list;
      (** (θ, log-likelihood) after each iteration, oldest first — feeds
          the convergence figure F7.  Empty when the estimate was run with
          [record_trajectory:false]. *)
  outlier_eps : float option;
      (** Final contamination weight ε — [Some] iff the estimate ran with
          [~robust:true]. *)
}

val estimate :
  ?max_iters:int ->
  ?tol:float ->
  ?init:float array ->
  ?sigma:float ->
  ?estimate_sigma:bool ->
  ?record_trajectory:bool ->
  ?robust:bool ->
  Paths.t ->
  samples:float array ->
  result
(** Defaults: 100 iterations, tolerance 1e-5 on max |Δθ|, uniform θ init,
    initial σ 2.0 (cycles), σ re-estimated.  σ never falls below 0.1.

    [record_trajectory] (default true) controls whether the per-iteration
    (θ, log-likelihood) trajectory is kept.  Hot callers that never read
    it (bench sweeps, {!Windowed}) pass false to skip one θ copy per
    iteration.

    [robust] (default false) switches on the contamination-robust
    variant: the path mixture gains a uniform component of weight ε
    whose support covers both the path-cost envelope and the observed
    sample range, so a timing no path could have produced is absorbed
    instead of dragging θ and σ.  ε starts at 0.05 and is re-estimated
    each iteration as the outlier mass fraction, clamped to
    [[1e-6, 0.5]]; σ is re-estimated over inlier responsibility mass
    only, and the result carries the final ε in [outlier_eps].  Off, the
    exact sparse kernel runs and results stay bit-for-bit identical to
    {!Dense}; the robust path makes no bit-exactness promise against
    {!Dense}.
    @raise Invalid_argument on empty samples. *)

val default_sigma : resolution:int -> jitter:float -> float
(** Noise scale implied by the timer configuration for a {e differenced}
    pair of timestamps: √((resolution²−1)/6 + 2·jitter²), floored at
    0.1. *)

val group_samples : float array -> (float * float) array
(** Group samples by exact value into (value, count) pairs sorted
    ascending — the E-step's unit of work.  Exposed for benchmarks. *)

(** The dense per-path reference implementation — the estimator exactly as
    it existed before the sparse-kernel rewrite, kept alive as the oracle
    the optimized kernels are differentially tested against (both by
    [test/test_em_kernels.ml] and by the fuzzer's EM oracle).  Same
    mixture model, same clamping, same convergence rule; every per-path
    term is evaluated densely, so it is slow but unarguable.  Without
    [?outlier] the optimized {!estimate} must agree with this
    bit-for-bit. *)
module Dense : sig
  val estimate :
    ?max_iters:int ->
    ?tol:float ->
    ?init:float array ->
    ?sigma:float ->
    ?estimate_sigma:bool ->
    ?record_trajectory:bool ->
    Paths.t ->
    samples:float array ->
    result
  (** Defaults match {!estimate}.  @raise Invalid_argument on empty
      samples. *)
end
