(** Assembled CT16 programs: flat instruction array with resolved targets,
    a symbol table, and procedure extents.

    Addresses are instruction indices.  Flash occupancy in words (some
    instructions take two) is tracked separately for the code-size
    accounting in the overhead experiments. *)

type proc_info = {
  name : string;
  entry : int;  (** Address of the first instruction. *)
  finish : int;  (** One past the last instruction. *)
}

type t

val make : code:int Isa.instr array -> symbols:(string * int) list -> procs:proc_info list -> t
(** Validates: targets in range, procedure extents sane and non-overlapping,
    symbols within the code. *)

val code : t -> int Isa.instr array
(** The underlying array (not copied — treat as read-only). *)

val length : t -> int
val instr : t -> int -> int Isa.instr
val flash_words : t -> int
val symbols : t -> (string * int) list
val find_symbol : t -> string -> int option
val procs : t -> proc_info list
val find_proc : t -> string -> proc_info option
val proc_at : t -> int -> proc_info option
(** Procedure whose extent contains the address. *)

val pp : Format.formatter -> t -> unit
(** Disassembly listing with addresses and procedure headers. *)
