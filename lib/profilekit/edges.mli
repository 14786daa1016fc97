(** Full edge-count instrumentation — the conventional profiling baseline
    Code Tomography competes against.

    Every conditional branch gets two counters {e in mote RAM}: the
    fall-through edge is counted inline right after the branch, and the
    taken edge is counted in a trampoline stub appended to the procedure
    that the branch is redirected through.  A counter bump is the real
    read-modify-write sequence (borrow a register, load, add, store,
    restore), so the dynamic cost is what arc profiling actually pays on a
    load/store MCU — compare it with
    {!Probes.probe_cycles_per_invocation}.

    Branch instructions keep their relative order under instrumentation, so
    counter ids map back to the {e original} program's CFG by enumerating
    its branches in address order.  Counters are 16-bit mote words: runs
    must keep individual edge counts below 32768. *)

open Mote_isa

val instrument : Asm.item list -> Asm.item list
(** Counters start at RAM word 3072 — above the compiler's static data
    for all bundled workloads, below the stack. *)

val num_counters : Program.t -> int
(** For an {e original} (uninstrumented) program: 2 × number of conditional
    branches = RAM words the counters occupy. *)

val branch_order : Program.t -> (string * int) list
(** Original program's conditional branches in address order:
    [(proc name, block id)] — the [j]-th entry owns counters [2j] (taken)
    and [2j+1] (fall). *)

val counts_of_memory :
  original:Program.t ->
  Mote_machine.Machine.t ->
  (string * (int * (int * int)) list) list
(** Read the counters out of the instrumented machine's RAM:
    per procedure, [(branch block id, (taken, fall))]. *)

val thetas_of_memory :
  original:Program.t ->
  Mote_machine.Machine.t ->
  (string * (int * float) list) list
(** Observed taken probabilities; 0.5 for never-executed branches. *)
