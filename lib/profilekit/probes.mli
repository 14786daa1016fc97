(** Entry/exit timing probes — the only instrumentation Code Tomography
    needs.

    Each instrumented procedure gets a two-instruction prologue probe and a
    two-instruction probe before every [Ret]:
    {v
      in  r13, timer       ; timestamp
      out probe, r13       ; stream it to the logger
    v}
    r13 is reserved by the compiler, so no save/restore is needed.  The
    probes cost {!probe_cycles_per_invocation} cycles and a few flash words
    per procedure — orders of magnitude below full edge instrumentation
    (experiment T6).

    {!collect} converts the device's probe log into {e exclusive} per-
    invocation durations: nested callee windows are subtracted the way
    gprof does it, so a procedure's samples reflect its own code plus the
    fixed {!call_residual} per call it makes. *)

open Mote_isa

val scratch_reg : int

val instrument : Asm.item list -> Asm.item list
(** Insert probes into every procedure except the compiler's [__init]. *)

val probe_cycles_per_invocation : int
(** Dynamic cost added per invocation (entry probe + one exit probe). *)

val window_correction : int
(** Cycles of an instrumented invocation that fall {e outside} the
    measured window (entry [in], exit [out], the [ret] and its taken
    penalty).  The timing model's analytic mean must subtract this. *)

val call_residual : int
(** Cycles attributed to the caller, per call to an instrumented callee,
    that are not part of the caller's own block costs: the call's taken
    penalty plus the callee-side probe halves and its [ret]. *)

type sample_set = (string * float array) list
(** Per procedure: exclusive duration (in cycles, after multiplying ticks
    back by the timer resolution) of each completed invocation, in
    execution order. *)

exception Unbalanced of string
(** Probe log does not nest properly: a probe outside any procedure, or
    an exit with no matching open entry. *)

val samples_for : sample_set -> string -> float array
(** Convenience accessor; [||] when the procedure has no samples. *)

type lossy_result = {
  samples : sample_set;  (** Windows whose records all survived. *)
  discarded : int;
      (** Frames abandoned because a record was missing, including those
          still open when the log ends. *)
}

(** The resynchronizing lossy collector as a resumable state machine: feed
    records one at a time, in any batch split, and drain the windows they
    close.  Its only state across records is the open-frame stack, and
    since recursion is impossible (an entry for an open procedure tears
    the stack) that stack never holds a procedure twice — at most one
    frame per procedure, however long the stream.  Because the machine is
    sequential, feeding a log in any number of pieces yields exactly the
    samples and discards of one {!collect_lossy_records} call over the
    concatenation. *)
module Collector : sig
  type t

  val create : ?max_window:int -> program:Program.t -> resolution:int -> unit -> t
  (** An empty collector; [max_window] and [resolution] as in
      {!collect_lossy_records}. *)

  val feed : t -> Mote_machine.Devices.probe_record -> unit
  (** Advance by one record.  Never raises. *)

  val drain : t -> sample_set
  (** The windows closed since the previous [drain] (per procedure, in
      execution order), which are then forgotten. *)

  val discarded : t -> int
  (** Frames abandoned so far because a record was missing — cumulative,
      never decreasing.  Frames that are merely still open are not
      counted; see {!open_frames}. *)

  val open_frames : t -> int
  (** Frames entered but not yet closed or abandoned: at most the number
      of procedures of the program. *)
end

val collect_lossy_records :
  ?max_window:int ->
  program:Program.t ->
  resolution:int ->
  Mote_machine.Devices.probe_record list ->
  lossy_result
(** Pair up the probe records of an instrumented binary, tolerant of
    records lost in flight: feed it the output of {!Transport.perturb}
    to model a field deployment (a lossy uplink, a buffer that filled
    up).  Instead of raising {!Unbalanced} like {!collect}, the collector
    resynchronizes.  An exit whose procedure is open deeper in the stack
    closes (and discards) the intervening frames; an exit with no
    matching open frame is skipped; an entry for an already-open
    procedure tears the whole stack (recursion being impossible, its
    previous exit must have been lost); any frame that was open while
    something was discarded is itself discarded, so surviving samples
    are exactly the fully-observed, fully-nested windows.  [max_window]
    (cycles) additionally discards windows longer than any plausible
    invocation — the signature of an exit pairing with a stale entry
    across a doubly-lost boundary.  One {!Collector} run over the whole
    list; frames still open at its end never completed, so they count
    as [discarded].

    Caveat: if a nested invocation loses {e both} its records, nothing in
    the log betrays it and the enclosing window silently absorbs the
    child's time.  When the {!Transport.stats} drop counts
    ([dropped_drop + dropped_burst + dropped_reboot]) exceed what
    [discarded] accounts for, treat caller samples with suspicion (leaf
    procedures are unaffected). *)

val collect : program:Program.t -> devices:Mote_machine.Devices.t -> sample_set
(** The strict collector: one {!Collector} run over the device's probe
    log that must not discard.  If any frame had to be abandoned the log
    does not nest properly and {!Unbalanced} is raised; otherwise the
    samples are exactly {!collect_lossy_records}'s on that log.
    Invocations still open at the end of the log (a run cut mid-task)
    are dropped silently. *)
