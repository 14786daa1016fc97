(** Per-procedure control-flow graphs recovered from assembled binaries.

    This is the structure everything downstream shares: the Markov model
    (blocks = states, branch probabilities = parameters), the estimator
    (block costs weight the timing model) and the placement pass (blocks
    are the units being reordered).

    Block 0 is always the procedure entry.  Branches may only target
    addresses inside their own procedure — the mini-compiler guarantees
    this, and {!of_proc} enforces it. *)

open Mote_isa

type edge_kind =
  | K_taken  (** Conditional branch, condition true. *)
  | K_fall  (** Fall-through: condition false, or straight-line split. *)
  | K_jump  (** Unconditional jump. *)

type terminator =
  | T_branch of Isa.cond * int * int
      (** [(cond, taken_block, fall_block)] — the two successor blocks. *)
  | T_jump of int
  | T_fall of int  (** Implicit fall into the next leader. *)
  | T_ret
  | T_halt

type block = {
  id : int;
  first : int;  (** Address of the first instruction. *)
  last : int;  (** Address of the terminating/last instruction (inclusive). *)
  base_cost : int;
      (** Σ base cycle costs of the block's instructions (no taken
          penalties — those belong to edges). *)
  size_words : int;
  callees : string list;  (** Procedures called from this block, in order. *)
  term : terminator;
}

type t = {
  proc : Program.proc_info;
  blocks : block array;
  preds : int list array;  (** Predecessor block ids, per block. *)
}

exception Malformed of string

val of_proc : Program.t -> Program.proc_info -> t
(** @raise Malformed if a branch escapes the procedure. *)

val of_program : Program.t -> t list
val of_proc_name : Program.t -> string -> t
(** @raise Not_found when no such procedure. *)

val num_blocks : t -> int
val block : t -> int -> block
val entry : t -> block

val successors : t -> int -> (int * edge_kind) list
(** Intra-procedural successor blocks with the kind of edge reaching them. *)

val edges : t -> (int * int * edge_kind) list
(** All [(src, dst, kind)] edges, in block order. *)

val branch_blocks : t -> int list
(** Ids of blocks ending in a conditional branch — one Markov parameter
    each. *)

val exit_blocks : t -> int list
(** Blocks terminating with [Ret]/[Halt]. *)

val reachable : t -> bool array
(** Blocks reachable from the entry. *)

val dominators : t -> int list array
(** [dominators t].(b) = sorted dominators of [b] (including itself);
    unreachable blocks dominate nothing and get []. *)

val back_edges : t -> (int * int) list
(** Natural-loop back edges [(tail, header)]: edges whose destination
    dominates their source. *)

val loop_headers : t -> int list

val static_cond_branches : t -> int

val to_dot : t -> string
(** Graphviz rendering for debugging and documentation. *)

val pp : Format.formatter -> t -> unit
