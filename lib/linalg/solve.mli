(** Linear solvers: LU with partial pivoting, inverse, least squares.

    These back the absorbing-chain computations ((I - Q)⁻¹) and the
    method-of-moments estimator (normal equations). *)

exception Singular
(** Raised when a factorization meets a (numerically) zero pivot. *)

val lu_solve : Matrix.t -> float array -> float array
(** [lu_solve a b] solves [a x = b] for square [a].  @raise Singular. *)

val inverse : Matrix.t -> Matrix.t
(** @raise Singular on singular input. *)

val determinant : Matrix.t -> float

val least_squares : Matrix.t -> float array -> float array
(** Minimizes ‖A x − b‖₂ via Tikhonov-damped normal equations
    (ridge 1e-9) — adequate for the small, well-scaled systems here. *)
