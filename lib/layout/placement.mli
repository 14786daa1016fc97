(** A placement: the order in which a procedure's basic blocks are laid
    out in flash.  Position 0 must hold the entry block (the procedure's
    address is its first instruction). *)

type t = int array
(** [t.(i)] is the block id at position [i]. *)

val natural : Cfgir.Cfg.t -> t
(** Original (compiler) order: the identity permutation. *)

val validate : Cfgir.Cfg.t -> t -> unit
(** @raise Invalid_argument unless [t] is a permutation of all block ids
    with the entry first. *)

val position_of : t -> int array
(** Inverse permutation: block id → position. *)

val pp : Format.formatter -> t -> unit
