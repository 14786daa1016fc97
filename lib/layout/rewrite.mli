(** The binary-rewriting pass: materialize placements into a new program.

    For every procedure, blocks are emitted in placement order; conditional
    branches are re-pointed and their polarity flipped when the taken
    successor becomes the fall-through; bridging jumps are inserted where a
    fall-through edge was broken and deleted where a jump target became
    adjacent.  Everything else — including calls across procedures — is
    relinked symbolically and reassembled, so the output is a complete,
    runnable binary. *)

(** What the rewrite emits for a block's terminator, given the block laid
    out right after it.  {!Delta}'s per-edge tables read these cases, and
    {!Eval}'s static rules mirror them. *)
type exit =
  | Keep  (** The branch as it was: the fall successor is next. *)
  | Flip
      (** The taken successor is next: the condition is negated and the
          branch points at the fall successor. *)
  | Bridge
      (** Neither successor is next: the branch to the taken successor,
          then a bridging jump to the fall successor. *)
  | Jump  (** A jump or fall whose successor is not next: a jump. *)
  | Adjacent  (** A jump or fall whose successor is next: nothing. *)
  | Stop  (** [Ret] or [Halt], as in the source. *)

val exit : Cfgir.Cfg.terminator -> next:int option -> exit
(** [next] is the id of the block laid out right after, [None] after the
    last. *)

val items :
  Mote_isa.Program.t ->
  placements:(string * Placement.t) list ->
  Mote_isa.Asm.item list
(** Procedures not named in [placements] keep their natural order. *)

val program :
  Mote_isa.Program.t -> placements:(string * Placement.t) list -> Mote_isa.Program.t
(** [items] followed by assembly. *)

val apply_all :
  Mote_isa.Program.t ->
  algorithm:(Cfgir.Freq.t -> Placement.t) ->
  profiles:(string * Cfgir.Freq.t) list ->
  Mote_isa.Program.t
(** Compute a placement for every profiled procedure with [algorithm] and
    rewrite.  Procedures without a profile are left in natural order. *)
