(** Model checking: does the fitted path mixture actually explain the
    observed timing distribution?

    A low θ error is unobservable in the field (there is no oracle), but a
    poor distributional fit {e is} observable and flags the situations the
    estimator cannot be trusted in: path enumeration truncated below the
    real iteration counts, an unmodelled code path (interrupt handler,
    fault), or timer noise far from its configured scale. *)

type t = {
  total_variation : float;
      (** TV distance between the observed timing histogram and the
          mixture implied by θ, both discretized to the same bins. *)
  unexplained_mass : float;
      (** Fraction of observations farther than 3σ from every enumerated
          path cost — the "impossible samples". *)
  truncated : bool;  (** Enumeration was cut off (see {!Paths.truncated}). *)
}

val check : ?sigma:float -> Paths.t -> theta:float array -> samples:float array -> t
(** Default σ 1.0. @raise Invalid_argument on empty samples. *)

val acceptable : t -> bool
(** Rule of thumb: TV below 0.15 and unexplained mass below 2%. *)

val pp : Format.formatter -> t -> unit
