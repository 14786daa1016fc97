(** Descriptive statistics (Welford's algorithm).

    Collects count, mean, variance, min and max in a single pass with O(1)
    memory; {!merge} combines two summaries. *)

type t

val count : t -> int
val mean : t -> float
val variance : t -> float
(** Unbiased sample variance; 0 for fewer than two observations. *)

val stddev : t -> float
val min : t -> float
val max : t -> float
val total : t -> float

val merge : t -> t -> t
(** Combine two summaries as if their streams were concatenated. *)

val of_array : float array -> t
