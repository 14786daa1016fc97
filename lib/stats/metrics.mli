(** Error metrics used throughout the evaluation: how close are estimated
    branch probabilities / edge frequencies to the ground truth. *)

val mae : float array -> float array -> float
(** Mean absolute error; arrays must have equal, positive length. *)

val max_abs_error : float array -> float array -> float

