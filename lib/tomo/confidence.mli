(** Uncertainty quantification for Code Tomography estimates.

    End-to-end timing is an indirect observation of θ, so downstream
    consumers (the placement pass, or an engineer deciding whether to trust
    a profile) need to know how tight the estimate is.  This module
    bootstraps the timing sample: resample with replacement, re-run EM
    warm-started from the point estimate, and read each parameter's
    interval from the replicates' percentile spread. *)

type interval = { lo : float; point : float; hi : float }

type t = {
  intervals : interval array;  (** Per parameter, canonical order. *)
  replicates : int;
}

val width : interval -> float

val bootstrap :
  ?replicates:int ->
  Stats.Rng.t ->
  Paths.t ->
  samples:float array ->
  point:float array ->
  sigma:float ->
  t
(** 90% intervals over [replicates] (default 50) resamples, each running
    15 EM iterations warm-started from the point estimate.  An interval
    is the replicates' 5th–95th percentile spread around their median,
    placed on the point estimate and clipped to [0,1], so it always
    contains its point, even when the replicates drift from an
    unconverged point estimate.  Warm-started means θ from [point] and σ
    from [sigma], the point estimate's σ̂ (so few iterations are needed).
    Both are required: a replicate that started from EM's default σ would
    re-fit the noise scale first and walk θ away from the point estimate.
    All randomness comes from [rng]: a caller bootstrapping several
    procedures in parallel hands each its own {!Stats.Rng.split_n} child,
    split before any work starts (as [ctomo report] does), so the
    intervals do not depend on the domain count.
    @raise Invalid_argument on empty samples. *)

val contains : t -> int -> float -> bool
(** Does parameter [k]'s interval contain a value? *)

val pp : Format.formatter -> t -> unit
