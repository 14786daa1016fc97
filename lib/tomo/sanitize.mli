(** Sample sanitization — quarantine infeasible probe windows before
    estimation.

    A probe log that crossed a lossy link ({!Profilekit.Transport})
    contains windows no execution could have produced: an exit paired
    with a stale entry across lost records, a corrupted timestamp, a
    window spanning a node reboot.  Feeding them to the estimator
    silently biases θ — and a profile that is silently wrong is worse
    than no profile at all, because the placement pass will happily
    rewrite the binary on top of it.

    Two deterministic stages (no randomness, order-preserving):

    + {e cost envelope}: the path model bounds every feasible window to
      [[min_cost − 6σ, max_cost + 6σ]], σ the measurement noise floored
      at 1 cycle; anything outside is physically impossible and
      quarantined first.
    + {e MAD outlier rejection} — only when no envelope was given:
      samples farther than 8 robust standard deviations (1.4826·MAD,
      floored at 1 cycle, so a duplicates-only set keeps its duplicates)
      from the median are quarantined.  The
      median/MAD pair has a 50% breakdown point, so a contaminated
      minority cannot drag the cut-offs the way it drags a mean/σ pair.
      With a finite envelope the MAD stage stands down: genuine path
      costs are multi-modal (most windows share the modal path, so the
      MAD collapses to its floor and every legitimate long path would
      read as an outlier) — feasibility is then the model's call, and
      in-envelope garbage is the robust estimator's job
      ({!Em.estimate}'s outlier mixture).

    Edge cases are first-class: an empty input yields an empty output;
    fewer than 4 survivors skip the MAD stage (a single sample
    or a duplicates-only set is kept, envelope permitting); a fully
    quarantined set returns [[||]] and the report says so — the caller's
    health verdict ({!Health}) turns that into a typed [Rejected], never
    an exception. *)

type report = {
  total : int;
  kept : int;
  envelope_dropped : int;
  mad_dropped : int;
}

val run :
  ?min_cost:float ->
  ?max_cost:float ->
  sigma:float ->
  float array ->
  float array * report
(** [run ~min_cost ~max_cost ~sigma samples] returns the kept samples in
    their original order plus the quarantine report.  [min_cost] /
    [max_cost] default to ∓∞ (no envelope) — pass {!Paths.min_cost} /
    {!Paths.max_cost} when a path set is available. *)

val median : float array -> float
(** Linear-interpolated median; 0 on empty input.  Exposed for tests. *)

val mad : float array -> float
(** Median absolute deviation (unscaled); 0 on empty input. *)

val pp_report : Format.formatter -> report -> unit
