(** Finite discrete-time Markov chains.

    States are integers [0 .. size-1].  A chain stores its (row-stochastic)
    transition matrix; rows that sum to less than one implicitly leak the
    remainder to an external absorbing sink (used by {!Absorbing}). *)

type t

val create : Linalg.Matrix.t -> t
(** Validates that the matrix is square with non-negative entries and row
    sums at most 1 + 1e-9. *)

val of_edges : size:int -> (int * int * float) list -> t
(** Build from a sparse edge list [(src, dst, prob)]. *)

val size : t -> int
val prob : t -> int -> int -> float
val matrix : t -> Linalg.Matrix.t
(** A defensive copy of the transition matrix. *)

val row : t -> int -> float array
val leak : t -> int -> float
(** Probability mass leaving the chain from a state (1 − row sum). *)

val successors : t -> int -> (int * float) list
(** Positive-probability transitions out of a state. *)

val step : Stats.Rng.t -> t -> int -> int option
(** Sample the next state; [None] when the leak mass fires (absorption). *)

val stationary : ?iterations:int -> ?eps:float -> t -> float array
(** Power-iteration stationary distribution of a stochastic chain starting
    from uniform.  For periodic chains this returns the Cesàro-style damped
    average (damping 0.5 per step). *)

val n_step : t -> int -> Linalg.Matrix.t
(** [n_step t k] is the k-step transition matrix. *)
