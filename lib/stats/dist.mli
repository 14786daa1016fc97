(** Probability distributions: the samplers behind the simulated sensors,
    radio traffic and timer jitter, and the Gaussian densities behind the
    estimators' timing-noise likelihoods.

    Samplers take an {!Rng.t} explicitly so call sites control their random
    stream. *)

val gaussian : Rng.t -> mu:float -> sigma:float -> float
(** Normal draw via Box–Muller.  [sigma] must be non-negative. *)

val exponential : Rng.t -> rate:float -> float
(** Exponential with rate [rate] > 0. *)

val gaussian_pdf : mu:float -> sigma:float -> float -> float
(** Density of Normal(mu, sigma²) at a point. *)

val gaussian_log_pdf : mu:float -> sigma:float -> float -> float
(** Log-density; safe for tiny densities that underflow {!gaussian_pdf}. *)

