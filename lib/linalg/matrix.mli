(** Small dense matrices over floats.

    Sized for CFG-scale problems (tens of states), so the implementation
    favours clarity: row-major [float array array], O(n³) factorizations. *)

type t = float array array

val make : int -> int -> float -> t
val identity : int -> t
val of_rows : float array array -> t
(** Validates rectangularity and copies. *)

val rows : t -> int
val cols : t -> int
val copy : t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mat_vec : t -> float array -> float array

val equal : ?eps:float -> t -> t -> bool
