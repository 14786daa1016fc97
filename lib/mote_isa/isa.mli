(** The CT16 instruction set: a 16-register RISC core in the spirit of the
    MSP430/AVR-class MCUs used on sensor motes.

    The property the whole reproduction turns on is the control-transfer
    cost model: the core fetches sequentially (static predict-not-taken),
    so every {e taken} control transfer pays {!taken_penalty} extra
    cycles.  Profile-guided code placement reduces how often branches are
    taken, and therefore both the "misprediction" count and total cycles.

    Instructions are parameterized by their label type: [string] while
    writing assembly, [int] (absolute flash address) once assembled. *)

type reg = int
(** Register index, 0..15.  By convention r13 is the instrumentation
    scratch register, r14 the frame pointer, r15 holds return values. *)

val num_regs : int

type cond = Eq | Ne | Lt | Ge | Le | Gt
(** Signed comparisons against the flags set by [Cmp]/[Cmpi]. *)

type alu_op = Add | Sub | Mul | And | Or | Xor | Shl | Shr

type port =
  | P_timer  (** Reading yields the (quantized, jittered) cycle clock. *)
  | P_sensor of int  (** ADC channel; value supplied by the environment. *)
  | P_radio_rx  (** Next received payload word; 0 when queue empty. *)
  | P_radio_tx  (** Writing transmits one payload word. *)
  | P_leds  (** Writing sets the LED bitmask. *)
  | P_probe  (** Instrumentation: writing logs (pc, value) host-side. *)
  | P_counter  (** Instrumentation: writing bumps counter[value]. *)

type 'label instr =
  | Nop
  | Halt
  | Movi of reg * int
  | Mov of reg * reg
  | Alu of alu_op * reg * reg * reg  (** [Alu (op, rd, ra, rb)]: rd ← ra op rb. *)
  | Alui of alu_op * reg * reg * int  (** rd ← ra op imm. *)
  | Cmp of reg * reg  (** Set Z/N flags from ra − rb. *)
  | Cmpi of reg * int
  | Ld of reg * reg * int  (** rd ← mem[ra + off]. *)
  | St of reg * int * reg  (** mem[ra + off] ← rs. *)
  | Push of reg
  | Pop of reg
  | Br of cond * 'label  (** Conditional branch; falls through when false. *)
  | Jmp of 'label
  | Call of 'label
  | Ret
  | In of reg * port
  | Out of port * reg

val taken_penalty : int
(** Extra cycles charged for every taken control transfer (branch taken,
    jump, call, return). *)

val base_cost : 'a instr -> int
(** Cycles for the instruction {e excluding} any taken penalty. *)

val size : 'a instr -> int
(** Flash words occupied (immediates take a second word). *)

val is_terminator : 'a instr -> bool
(** [Br]/[Jmp]/[Ret]/[Halt]: ends a basic block.  [Call] does not — control
    returns to the next instruction. *)

val negate_cond : cond -> cond

val map_label : ('a -> 'b) -> 'a instr -> 'b instr

val label : 'a instr -> 'a option
(** Target of a control-transfer instruction, if any. *)

val pp_cond : Format.formatter -> cond -> unit

val to_string : ('label -> string) -> 'label instr -> string
