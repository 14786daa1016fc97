(** Method-of-moments estimation: the cheap alternative the ablation (A8)
    compares EM against.

    Matches the model's analytic mean and variance of the probe window
    (from absorbing-chain theory, see {!Model}) against the sample moments
    by projected gradient descent on θ, with numeric gradients — the
    objective is a smooth rational function of θ but writing its gradient
    analytically buys nothing at CFG scale.  Identifiability is weaker
    than EM's (two moments versus the whole distribution), which is the
    effect the ablation demonstrates. *)

type result = {
  theta : float array;
  iterations : int;
  objective : float;  (** Final loss (normalized squared moment errors). *)
  converged : bool;
}

val estimate : ?noise_sigma:float -> Model.t -> samples:float array -> result
(** At most 400 iterations from uniform θ, stopping when the objective
    improves by less than 1e-9; learning rate 0.15, halved on
    non-improvement; variance term weighted 0.3.  Noise σ (default 0)
    has its variance subtracted from the sample variance before
    matching.
    @raise Invalid_argument on empty samples. *)
