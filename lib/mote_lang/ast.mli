(** Abstract syntax of the mote mini-language.

    A deliberately nesC-shaped subset: 16-bit integer variables, procedures
    without recursion, structured control flow, and builtins for the mote
    peripherals.  Programs are built in OCaml via the {!Dsl} combinators
    (the workloads library is written in it); there is no concrete
    parser — the paper's subject is what happens {e after} the front
    end. *)

type binop = Add | Sub | Mul | BAnd | BOr | BXor | Shl | Shr
type relop = Req | Rne | Rlt | Rle | Rgt | Rge

type expr =
  | Int of int
  | Var of string
  | Bin of binop * expr * expr
  | Rel of relop * expr * expr  (** 1 when the relation holds, else 0. *)
  | Not of expr
  | And of expr * expr  (** Short-circuit. *)
  | Or of expr * expr  (** Short-circuit. *)
  | Read_sensor of int  (** ADC channel read — the nondeterministic input. *)
  | Radio_rx  (** Next queued payload word, 0 when none. *)
  | Timer_now
  | Call_fn of string * expr list
  | Arr_get of string * expr
      (** Global array read; indices are taken modulo nothing — out-of-
          range indices fault at runtime like any wild pointer would. *)

type stmt =
  | Assign of string * expr
  | Arr_set of string * expr * expr  (** [Arr_set (a, index, value)]. *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Break  (** Exit the innermost enclosing loop. *)
  | Call of string * expr list  (** Procedure call for effect. *)
  | Radio_tx of expr
  | Led of expr
  | Return of expr option

type proc = {
  name : string;
  params : string list;
  locals : string list;
  body : stmt list;
}

type program = {
  globals : (string * int) list;  (** Name and boot-time initial value. *)
  arrays : (string * int) list;  (** Name and size in words (zeroed at boot). *)
  procs : proc list;
}

val rel_negate : relop -> relop

val stmt_calls : stmt -> string list
(** Callee names appearing anywhere inside (duplicates preserved). *)

val pp_program : Format.formatter -> program -> unit

(** Combinators for writing programs inline.  [Dsl.(v "x" <: i 10)] etc. *)
module Dsl : sig
  val i : int -> expr
  val v : string -> expr
  val ( +: ) : expr -> expr -> expr
  val ( -: ) : expr -> expr -> expr
  val ( *: ) : expr -> expr -> expr
  val ( &: ) : expr -> expr -> expr
  val ( |: ) : expr -> expr -> expr
  val ( ^: ) : expr -> expr -> expr
  val ( <<: ) : expr -> expr -> expr
  val ( >>: ) : expr -> expr -> expr
  val ( =: ) : expr -> expr -> expr
  val ( <>: ) : expr -> expr -> expr
  val ( <: ) : expr -> expr -> expr
  val ( <=: ) : expr -> expr -> expr
  val ( >: ) : expr -> expr -> expr
  val ( >=: ) : expr -> expr -> expr
  val ( &&: ) : expr -> expr -> expr
  val ( ||: ) : expr -> expr -> expr
  val not_ : expr -> expr
  val sensor : int -> expr
  val radio_rx : expr
  val now : expr
  val fn : string -> expr list -> expr
  val at : string -> expr -> expr
  (** Array read: [at "cache" (v "i")]. *)

  val set : string -> expr -> stmt

  val set_at : string -> expr -> expr -> stmt
  (** Array write: [set_at "cache" index value]. *)

  val if_ : expr -> stmt list -> stmt list -> stmt
  val when_ : expr -> stmt list -> stmt
  (** [if_] with an empty else. *)

  val while_ : expr -> stmt list -> stmt
  val break_ : stmt
  val callp : string -> expr list -> stmt
  val send : expr -> stmt
  val led : expr -> stmt
  val return : expr -> stmt

  val proc : string -> params:string list -> locals:string list -> stmt list -> proc
end
