(** The CT16 interpreter: cycle-counted execution of assembled programs.

    Arithmetic is 16-bit two's-complement, memory is a flat word array, and
    the stack grows down from the top of memory.  Every taken control
    transfer (taken branch, jump, call, return) pays
    {!Mote_isa.Isa.taken_penalty} extra cycles — the static
    predict-not-taken model whose miss rate code placement minimizes.

    Procedures run with TinyOS-style run-to-completion semantics via
    {!run_proc}: the machine pushes a sentinel return address, jumps to the
    entry, and executes until the matching [Ret].  Global memory persists
    across invocations (mote programs keep state in statics).

    Execution is one interpreter loop over the program's instruction array
    and a per-pc base-cost table built by {!create}.  The loop keeps pc,
    cycles, the instruction count and the fuel in locals, and writes them
    back to the machine before every hook call, port access and fault;
    the branch and trace hooks are tested inside that loop, so there is no
    separate fast path.  {!Reference} keeps the original
    one-instruction-at-a-time interpreter as the specification the loop is
    tested against. *)

open Mote_isa

type prediction =
  | Predict_not_taken
      (** AVR/MSP430 style: fetch always proceeds sequentially, every
          taken transfer pays the penalty (the default, and the model the
          placement pass optimizes for). *)
  | Predict_btfn
      (** Backward-taken/forward-not-taken static heuristic: a conditional
          branch to a lower address is predicted taken; the penalty is
          paid on mispredictions.  Unconditional transfers still redirect
          fetch and pay the penalty. *)

type stats = {
  instructions : int;
  cycles : int;
  cond_branches : int;  (** Conditional branches executed. *)
  taken_cond_branches : int;
  mispredicted_branches : int;
      (** Conditional branches that paid the penalty under the machine's
          prediction policy (equals taken count for
          {!Predict_not_taken}). *)
  unconditional_transfers : int;  (** [Jmp] instructions executed. *)
  calls : int;
  returns : int;
}

val taken_transfer_rate : stats -> float
(** (mispredicted conditional + jumps) / (conditional + jumps): the
    fraction of layout-sensitive control transfers that stall the fetch
    stage — the paper's "branch misprediction rate" analogue.  0 when no
    such transfers executed. *)

exception Fault of string
(** Out-of-range memory/pc access, stack overflow, fuel exhaustion, reads
    from write-only ports. *)

type t

val create :
  ?mem_words:int ->
  ?prediction:prediction ->
  program:Program.t ->
  devices:Devices.t ->
  unit ->
  t
(** Fresh machine with zeroed registers and memory (default 4096 words,
    {!Predict_not_taken}). *)

val program : t -> Program.t
val devices : t -> Devices.t
val cycles : t -> int

val instructions : t -> int
(** Instructions executed so far: [(stats t).instructions] without
    building the record. *)

val stats : t -> stats
val halted : t -> bool

val pc : t -> int
(** The program counter.  After a return to the sentinel or a [Halt],
    the address of that instruction; after a fault, of the instruction
    that faulted, or for a fuel or pc fault, of the one that could not
    start. *)

val sp : t -> int
(** Stack pointer: the word index of the top of stack, [mem_words] when
    empty. *)

val reg : t -> Isa.reg -> int
val read_mem : t -> int -> int
val write_mem : t -> int -> int -> unit

val set_branch_hook : t -> (pc:int -> taken:bool -> unit) option -> unit
(** Invoked on every conditional branch with its outcome; used by the
    oracle (perturbation-free) profiler. *)

val set_trace_hook :
  t -> (pc:int -> instr:int Isa.instr -> cycles:int -> unit) option -> unit
(** Invoked before every instruction executes (with the cycle count at
    that point) — execution tracing for debugging; costs nothing when
    unset.  Neither hook may reset or run the machine it watches. *)

val run_proc : ?fuel:int -> t -> string -> int
(** [run_proc t name] executes one invocation of the procedure and returns
    the cycles it consumed (including instrumentation the binary carries).
    Registers are scratch across invocations; memory persists.
    @raise Fault on traps or when [fuel] instructions (default 1e7) are
    exceeded.
    @raise Not_found if the procedure does not exist. *)

val run_at : t -> fuel:int -> int -> int
(** [run_at t ~fuel entry] is {!run_proc} for the procedure whose first
    instruction is at address [entry]: callers that invoke the same
    procedure many times resolve its name once.  [fuel] is required, so a
    scheduler's per-task call passes no option. *)

val run_from_symbol : ?fuel:int -> t -> string -> unit
(** Jump to a symbol and run until [Halt] — for whole-program tests. *)

(** The per-instruction reference interpreter: a [step] function that
    decodes one instruction through {!Mote_isa.Program} and
    {!Mote_isa.Isa.base_cost}, driven by a fuel loop.  It runs on the same
    machine state as the functions above and must agree with them on
    statistics, registers, memory, device effects, hook calls and fault
    messages; the differential tests and the fuzzer's [interpreter]
    oracle check exactly that. *)
module Reference : sig
  val run_proc : ?fuel:int -> t -> string -> int
  val run_from_symbol : ?fuel:int -> t -> string -> unit
end

val idle : t -> int -> unit
(** Advance the cycle clock without executing instructions — the mote
    sleeping until the next interrupt.  Count must be non-negative. *)

val reset : t -> unit
(** Zero registers, flags, memory and statistics (keeps devices). *)
