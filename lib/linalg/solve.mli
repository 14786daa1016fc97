(** Linear solvers: LU with partial pivoting and the inverse built on it.

    These back the absorbing-chain fundamental matrix ((I - Q)⁻¹) and the
    flow-conservation system that reconstructs edge counts from branch
    counts. *)

exception Singular
(** Raised when a factorization meets a (numerically) zero pivot. *)

val lu_solve : Matrix.t -> float array -> float array
(** [lu_solve a b] solves [a x = b] for square [a].  @raise Singular. *)

val inverse : Matrix.t -> Matrix.t
(** @raise Singular on singular input. *)
