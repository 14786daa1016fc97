(** Fault-injecting probe transport — deployment realism for the probe log.

    In the field the probe stream crosses a lossy, delaying radio link
    between the mote and the base station; what the estimator receives is
    not the pristine log {!Mote_machine.Devices.probe_log} accumulates in
    simulation.  This module perturbs a raw probe log with the classic
    telemetry pathologies, each independently configurable and each driven
    by its own {!Stats.Rng.stream} so that campaigns are byte-identical at
    any domain count and a fault stage's random pattern never shifts when
    another stage's rate changes:

    + node-reboot truncation (8 records lost at each reboot);
    + Gilbert–Elliott burst loss (two-state good/bad channel: the bad
      state ends with probability 0.25 per record and loses each record
      with probability 0.8);
    + per-word Bernoulli drop (independent loss);
    + word corruption (2 random bit flips in the timestamp payload);
    + duplication (link-layer retransmit of an already-delivered word);
    + bounded reordering (records displaced by at most 4 places).

    Stages apply in exactly that order — node first, then channel, then
    link — and a stage whose rate is zero is the identity, so {!default}
    (all rates zero) returns the log unchanged.
    The perturbed log is meant to be fed to
    {!Probes.collect_lossy_records}, which resynchronizes across the
    damage; {!Tomo.Sanitize} then quarantines the windows the damage made
    infeasible. *)

(** The fault rates, one per stage.  Keep the fields in this order: a
    record literal evaluates its fields right to left in declaration
    order, so a literal that draws its rates from one generator (the
    fuzzer's fault mix) would otherwise hand the draws to different
    fields. *)
type config = {
  reboot : float;  (** Per-record probability of a node reboot. *)
  burst_enter : float;  (** Gilbert–Elliott: P(good → bad) per record. *)
  drop : float;  (** Independent per-record Bernoulli loss. *)
  corrupt : float;  (** Per-record probability of payload corruption. *)
  duplicate : float;  (** Per-record probability of a duplicate delivery. *)
  reorder : float;  (** Per-record probability of displacement. *)
}

val default : config
(** All rates zero: the identity transport. *)

val field : ?drop:float -> ?corrupt:float -> unit -> config
(** [field ()] is the canonical "deployed in the field" preset used by the
    acceptance tests and the R13 sweep: 5% independent loss and 1% word
    corruption over {!default}. *)

val validate : config -> unit
(** Check that every field lies in [0,1].
    @raise Invalid_argument naming the first field that does not (NaN
    included). *)

val is_identity : config -> bool
(** True when every fault rate is zero — {!perturb} is then the identity
    on any log. *)

type stats = {
  sent : int;  (** Records offered to the transport. *)
  delivered : int;  (** Records in the perturbed log (duplicates included). *)
  dropped_drop : int;  (** Lost to independent Bernoulli loss. *)
  dropped_burst : int;  (** Lost inside Gilbert–Elliott bad states. *)
  dropped_reboot : int;  (** Lost to reboot truncation. *)
  reboots : int;
  corrupted : int;
  duplicated : int;
  reordered : int;  (** Records delivered out of arrival order. *)
}

val perturb :
  ?seed:int ->
  config ->
  Mote_machine.Devices.probe_record list ->
  Mote_machine.Devices.probe_record list * stats
(** Apply the configured faults to a probe log.  Deterministic in
    [(seed, config, log)]: every stage draws from its own
    [Stats.Rng.stream ~seed ~index:stage] and never consults the wall
    clock or global state (default seed 0).
    @raise Invalid_argument if {!validate} rejects [config]. *)

val pp_stats : Format.formatter -> stats -> unit
