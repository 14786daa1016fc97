(** Identifiability analysis: which branch probabilities can end-to-end
    timing possibly determine?

    A parameter is {e ambiguous} when two enumerated paths have the same
    cost but traverse that branch differently — the timing distribution is
    then invariant under moving probability mass between them, and no
    estimator can recover the true split.  Detecting this statically (it
    needs no samples) tells a deployment which branches need help, e.g.
    cost watermarking (see {!Profilekit.Watermark}). *)

type t = {
  ambiguous : bool array;  (** Per parameter, canonical order. *)
  collisions : int;  (** Path pairs with equal cost but different outcomes. *)
}

val analyze : Paths.t -> t
(** Two costs within 0.5 cycles count as colliding. *)

val any : t -> bool
val ambiguous_blocks : t -> Model.t -> int list
(** Branch block ids of the ambiguous parameters. *)
