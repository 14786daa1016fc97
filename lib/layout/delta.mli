(** Static per-edge cost differences between a binary and a re-placement
    of it, so that one run of the binary scores the re-placed one too.

    A placement changes only terminators: which way a conditional branch
    points and where jumps go ({!Rewrite.exit}).  Calls, returns and every
    other instruction are the same in every layout.  So each conditional
    branch outcome of the binary, together with the fixed continuation
    after it — the jumps and falls up to the next conditional branch or
    exit, and the entry chains of the procedures called along it — costs
    the re-placed binary a fixed number of extra cycles, jumps and taken
    conditional branches.  Summing those over the outcomes a run of the
    binary takes, plus the entry chain of each procedure it starts, gives
    the re-placed binary's counts on the same execution, under the
    predict-not-taken model.

    The binary's own costs are read from its instructions (it may keep
    jumps to the next block, which the rewrite deletes); the re-placed
    binary's from its placement, through {!Rewrite.exit}. *)

type t = private {
  cycles : int array;
      (** Extra cycles, indexed by [2 * pc + 1] for the conditional branch
          at [pc] taken and [2 * pc] for it falling through. *)
  jumps : int array;  (** Extra jumps executed, indexed the same way. *)
  taken : int array;
      (** Extra taken conditional branches, indexed the same way. *)
  entries : (string * (int * int)) list;
      (** By procedure name, the extra [(cycles, jumps)] of its entry
          chain — what an invocation costs before its first conditional
          branch.  A scheduler charges it per task start. *)
}

val create : Mote_isa.Program.t -> placements:(string * Placement.t) list -> t option
(** The tables of [Rewrite.program program ~placements] against
    [program].  [None] when [program] has code outside its procedures, or
    a chain of jumps, falls and entry calls that loops without a
    conditional branch: a run that reaches such a loop never returns, and
    no table can summarize it. *)
