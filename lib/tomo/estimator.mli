(** Front door for Code Tomography estimation.

    Given the model of a probe-instrumented procedure and its end-to-end
    timing samples, produce a θ estimate with one of the available
    methods, plus its per-block probabilities.  Turning θ into an
    edge-frequency profile is [Codetomo.Pipeline.freq_of_theta]'s job;
    fanning estimation out over procedures is
    [Codetomo.Pipeline.estimate]'s. *)

type method_ =
  | Em  (** Path-mixture EM — the paper's estimator. *)
  | Moments  (** Mean/variance matching (ablation A8). *)
  | Naive  (** θ = 0.5 everywhere: the no-profile prior. *)

val method_name : method_ -> string

type t = {
  method_ : method_;
  theta : float array;
  thetas_by_block : (int * float) list;  (** Branch block id → P(taken). *)
  iterations : int;
  log_likelihood : float option;  (** EM only. *)
  sigma : float option;  (** EM only: final noise scale. *)
  truncated_paths : bool;  (** Path enumeration hit its bounds. *)
  converged : bool;
      (** The iterative method stopped on tolerance, not its iteration
          cap.  Always true for [Naive] and {!fallback}. *)
  outlier_eps : float option;
      (** Final contamination weight — EM with [?outlier] only. *)
}

val fallback : Model.t -> t
(** The estimate placement falls back to when a procedure's telemetry is
    {!Health.Rejected}: uniform θ (the no-profile prior), method
    [Naive], zero iterations.  Total — never raises, even on a model
    with no samples at all. *)

val run :
  ?method_:method_ ->
  ?noise_sigma:float ->
  ?paths:Paths.t ->
  ?outlier:Em.outlier ->
  Model.t ->
  samples:float array ->
  t
(** Defaults: EM, noise σ from a unit-resolution jitter-free timer.
    [~paths] supplies a pre-enumerated (typically session-cached) path
    set for the EM method, skipping re-enumeration; it must belong to
    the same model.  [~outlier] switches the EM to its contamination-
    robust variant ({!Em.estimate}).  Both are ignored by the other
    methods. *)
