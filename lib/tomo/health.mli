(** Per-procedure health verdict — the contract between estimation and
    placement under lossy telemetry.

    Estimation over a degraded probe log can fail three ways, in
    increasing order of severity: the EM can stop on its iteration cap
    rather than its tolerance; the surviving sample count can be too thin
    to mean anything; the confidence interval can be so wide
    the point estimate is decorative.  Instead of letting each failure
    surface as a different exception (or worse, not at all), every
    estimation carries a verdict:

    - [Healthy]: use the estimate.
    - [Degraded reason]: the estimate is usable but the reported numbers
      deserve suspicion; placement still uses it, reports flag it.
    - [Rejected reason]: the estimate is unusable; placement {e must}
      fall back to the original layout for this procedure.  The fuzz
      oracle asserts no [Rejected] procedure is ever rewritten. *)

type t = Healthy | Degraded of string | Rejected of string

val default_min_samples : int
(** 8 — below this, a confidence interval is meaningless. *)

val judge : ?min_samples:int -> converged:bool -> sample_count:int -> unit -> t
(** Sample floor first (0 or thin ⇒ [Rejected]), then convergence
    (⇒ [Degraded]). *)

val apply_ci_width : width:float -> t -> t
(** Demote on confidence-interval width (a fraction of θ mass, in
    [0,1]; {!Confidence} gives a parameter with no standard error the
    width 1):
    [Healthy] becomes [Degraded] above 0.5, anything becomes [Rejected]
    above 0.95.  Never promotes. *)

val apply_noise : sigma:float -> noise:float -> t -> t
(** Demote on noise consistency: when the estimator's fitted noise scale
    [sigma] exceeds 4× [noise], the scale the timer configuration
    implies, [Healthy] becomes [Degraded] and a [Degraded] verdict gains
    this reason after its own.  Windows the timing model cannot produce
    (a wrapped or corrupted timestamp, an unmodelled path) show up there
    first.  Never promotes. *)

val worst : t -> t -> t
(** The more severe of the two ([Rejected] > [Degraded] > [Healthy]);
    among equals, the first. *)

val is_rejected : t -> bool
val is_healthy : t -> bool

val to_string : t -> string
(** ["healthy"], ["degraded (reason)"], ["rejected (reason)"]. *)

val pp : Format.formatter -> t -> unit
