(** Profiling-duration planner: how long must the mote collect timestamps
    before the estimate is trustworthy?

    The standard error of the EM estimate shrinks as 1/√n.  We measure the
    bootstrap standard error at the current sample count and extrapolate
    to the count needed for a target precision — the answer a deployment
    tool would use to schedule the profiling phase. *)

type plan = {
  current_samples : int;
  current_se : float;  (** Max per-parameter bootstrap standard error. *)
  target_se : float;
  samples_needed : int;
      (** Estimated total samples for the target (≥ current when the
          target is already met... then equal to current). *)
}

val plan : Stats.Rng.t -> Paths.t -> samples:float array -> target_se:float -> plan
(** The standard error comes from 40 bootstrap replicates.
    @raise Invalid_argument on empty samples or non-positive target. *)

val pp : Format.formatter -> plan -> unit
