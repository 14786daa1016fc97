(** Absorbing Markov chains over the transient states of a procedure.

    States are integers [0 .. size-1].  A chain stores its sub-stochastic
    transition matrix: the mass a row lacks (its {!leak}) goes to an
    implicit absorbing sink, which stands for returning from the
    procedure.  {!Absorbing} analyses a chain; {!Walk} samples it. *)

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

val leak : t -> int -> float
(** Probability mass leaving the chain from a state (1 − row sum). *)

val step : Stats.Rng.t -> t -> int -> int option
(** Sample the next state; [None] when the leak mass fires (absorption). *)
