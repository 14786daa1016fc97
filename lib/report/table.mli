(** Aligned plain-text tables — every "Table N" in the evaluation is
    rendered through this. *)

val render : headers:string list -> string list list -> string
(** Box-drawn table, left-aligned in the first column and right-aligned in
    the rest (the usual name-then-numbers shape).
    @raise Invalid_argument on ragged rows. *)

val fmt_float : ?decimals:int -> float -> string
val fmt_pct : ?decimals:int -> float -> string
(** [fmt_pct 0.123] is ["12.3%"]. *)
