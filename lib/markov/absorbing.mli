(** Absorbing-chain analysis over the transient part of a chain.

    A procedure CFG is modelled as transient block states whose leak mass
    (see {!Chain.leak}) represents returning from the procedure.  This
    module computes the classic fundamental-matrix quantities, plus the
    mean and variance of an accumulated per-state reward (block cycle
    cost), which are the analytic moments the moment-matching estimator
    fits against. *)

type t

val analyze : Chain.t -> t
(** Computes the fundamental matrix N = (I − Q)⁻¹.
    @raise Linalg.Solve.Singular if some state never reaches absorption. *)

val chain : t -> Chain.t

val expected_visits : t -> start:int -> float array
(** Row of N: expected number of visits to each transient state before
    absorption when starting from [start]. *)

val mean_reward : t -> rewards:float array -> start:int -> float
(** E[Σ visits·reward] — the analytic mean end-to-end time. *)

val variance_reward : t -> rewards:float array -> start:int -> float
(** Var[Σ visits·reward], from the first-step second-moment recursion
    (I − Q) s = c² + 2 c ∘ (Q m). *)
