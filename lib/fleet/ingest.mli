(** Per-node incremental ingest — the base station's state for one node.

    Batches arrive in rounds; each is decoded from the versioned
    {!Profilekit.Wire} format (unknown versions raise the typed
    {!Profilekit.Wire.Error} — a fleet never guesses at firmware it does
    not speak) and its records are fed, in order, into the node's
    resumable lossy collector ({!Profilekit.Probes.Collector}).  The
    windows each batch closes are fed to the per-procedure
    {!Tomo.Online} estimators.  The collector is sequential, so a window
    that spans a batch boundary closes in the batch that carries its
    exit, and feeding batch by batch leaves every estimator in
    {e precisely} the state it would reach on the concatenated stream
    (the fleet test suite asserts this to the last bit).

    What is retained across batches: the collector's open-frame stack
    (at most one frame per procedure), each estimator's O(signatures +
    parameters) statistics, and every sample fed per procedure, which
    the end-of-campaign drift analysis reads back ({!samples}).  No
    record is kept once it has been fed. *)

type t

val create :
  node:Sim.node ->
  program:Mote_isa.Program.t ->
  resolution:int ->
  sigma:float ->
  decay:float ->
  procs:(string * Tomo.Paths.t) list ->
  t
(** One estimator per profiled procedure, all sharing the node's link.
    [procs] supplies each procedure's (typically session-cached) path
    set; [sigma] and [decay] configure the online estimators. *)

val node : t -> Sim.node

val ingest : t -> string -> unit
(** Decode one Wire batch, feed its records to the collector, and feed
    the windows they close to the estimators.
    @raise Profilekit.Wire.Error on an unreadable or wrong-version
    batch. *)

val delivered : t -> int
(** Records received so far (across all batches, duplicates included). *)

val discarded : t -> int
(** Frames the collector abandoned so far because a record was missing —
    cumulative, so it never decreases from one batch to the next. *)

val open_frames : t -> int
(** Frames open at the tail of the last batch, waiting for records a
    later batch may carry.  After the final batch, [discarded +
    open_frames] equals the [discarded] count of one
    {!Profilekit.Probes.collect_lossy_records} call over the
    concatenated stream. *)

val fed : t -> string -> int
(** Samples fed to [proc]'s estimator so far. *)

val total_fed : t -> int

val theta : t -> string -> float array
val weight : t -> string -> float
(** Decayed evidence mass of [proc]'s estimator. *)

val samples : t -> string -> float array
(** Every sample fed to [proc], in feed order — the windowed-drift
    analysis reads these back. *)

val fusion_input : t -> min_samples:int -> string -> Fusion.input
(** The node's vote for [proc]: current θ, decayed evidence mass, and a
    health verdict from the sample floor — [Rejected] below
    [min_samples], so a dead link excludes itself from fusion. *)
