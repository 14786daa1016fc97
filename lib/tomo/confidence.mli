(** Uncertainty quantification for Code Tomography estimates.

    End-to-end timing is an indirect observation of θ, so downstream
    consumers (the placement pass, or an engineer deciding whether to trust
    a profile) need to know how tight the estimate is, and how long to
    keep profiling for a tighter one.  This module reads both from the
    observed information (Louis 1982) at EM's final θ, with σ fixed at
    EM's σ̂: one deterministic pass over the grouped samples, no
    resampling.  Per distinct window value x seen n_x times, the path
    responsibilities are EM's own (the signature prior times the Gaussian
    term), and

    I = Σₓ n_x (E[B | x] − E[S Sᵀ | x] + E[S | x] E[S | x]ᵀ)

    where Sⱼ = tⱼ/θⱼ − fⱼ/(1−θⱼ) is a path's complete-data score and
    Bⱼⱼ = tⱼ/θⱼ² + fⱼ/(1−θⱼ)² its curvature (t, f: the path's taken and
    not-taken counts of branch j).  The standard errors are √diag(I⁻¹).

    A parameter whose diagonal of I⁻¹ is not positive, or every
    parameter when I is singular, has no standard error: the point is not
    a maximum of the likelihood (an EM stopped on its iteration cap, or a
    branch the timing cannot see).  Its interval is the whole of [0,1],
    which {!Health.apply_ci_width} reports. *)

type interval = { lo : float; point : float; hi : float }

type t = {
  intervals : interval array;  (** Per parameter, canonical order. *)
  se : float array;
      (** Per parameter standard error; [infinity] where the point is not
          a maximum. *)
  samples : int;  (** The sample count the information was read from. *)
}

val width : interval -> float

val information :
  Paths.t -> samples:float array -> point:float array -> sigma:float -> t
(** 90% Wald intervals on the logit scale,
    expit(logit θ ± 1.6449 · se / (θ(1−θ))), so each lies inside [0,1]
    and contains its point.  [point] is EM's θ (strictly inside (0,1),
    as EM's clamp keeps it) and [sigma] its σ̂.  Deterministic.
    @raise Invalid_argument on empty samples. *)

val samples_needed : t -> target_se:float -> int option
(** How many samples bring the largest standard error down to
    [target_se], extrapolating se ∝ 1/√n: the current count when the
    target is already met, [None] when some parameter has no standard
    error (the point is not a maximum, so nothing can be extrapolated).
    @raise Invalid_argument on a non-positive target. *)

val contains : t -> int -> float -> bool
(** Does parameter [k]'s interval contain a value? *)

val pp : Format.formatter -> t -> unit
