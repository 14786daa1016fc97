(** Fault-injecting probe transport — deployment realism for the probe log.

    In the field the probe stream crosses a lossy, delaying radio link
    between the mote and the base station; what the estimator receives is
    not the pristine log {!Mote_machine.Devices.probe_log} accumulates in
    simulation.  This module perturbs a raw probe log with the classic
    telemetry pathologies, each independently configurable and each driven
    by its own {!Stats.Rng.stream} so that campaigns are byte-identical at
    any domain count and a fault stage's random pattern never shifts when
    another stage's rate changes:

    + clock skew and drift (timestamps scaled / cumulatively offset);
    + node-reboot truncation (a run of records lost at each reboot);
    + Gilbert–Elliott burst loss (two-state good/bad channel);
    + per-word Bernoulli drop (independent loss);
    + word corruption (random bit flips in the timestamp payload);
    + duplication (link-layer retransmit of an already-delivered word);
    + bounded reordering (records displaced by at most a fixed span).

    Stages apply in exactly that order — source clock first, then node,
    then channel, then link — and a stage whose rate is zero is the
    identity, so {!default} (all rates zero) returns the log unchanged.
    The perturbed log is meant to be fed to
    {!Probes.collect_lossy_records}, which resynchronizes across the
    damage; {!Tomo.Sanitize} then quarantines the windows the damage made
    infeasible. *)

type config = {
  skew : float;
      (** Relative clock-frequency error: each timestamp [v] becomes
          [round (v * (1 + skew))] (mod 2^16).  0 disables. *)
  drift : float;
      (** Cumulative clock drift in ticks added per record: record [i]
          gains [round (i * drift)] ticks.  0 disables. *)
  reboot : float;  (** Per-record probability of a node reboot. *)
  reboot_flush : int;
      (** Records lost at each reboot (the node's unflushed buffer). *)
  burst_enter : float;  (** Gilbert–Elliott: P(good → bad) per record. *)
  burst_exit : float;  (** Gilbert–Elliott: P(bad → good) per record. *)
  burst_drop : float;  (** Loss probability while the channel is bad. *)
  drop : float;  (** Independent per-record Bernoulli loss. *)
  corrupt : float;  (** Per-record probability of payload corruption. *)
  corrupt_bits : int;
      (** Bits flipped (uniformly among the 16) per corruption. *)
  duplicate : float;  (** Per-record probability of a duplicate delivery. *)
  reorder : float;  (** Per-record probability of displacement. *)
  reorder_span : int;
      (** Maximum forward displacement, in records, of a reordered word. *)
}

val default : config
(** All rates zero (identity transport); spans at sensible defaults
    ([reboot_flush] 8, [corrupt_bits] 2, [reorder_span] 4). *)

val field : ?drop:float -> ?corrupt:float -> unit -> config
(** [field ()] is the canonical "deployed in the field" preset used by the
    acceptance tests and the R13 sweep: 5% independent loss and 1% word
    corruption over {!default}. *)

val validate : config -> unit
(** Check that every probability field ([reboot], [burst_enter],
    [burst_exit], [burst_drop], [drop], [corrupt], [duplicate],
    [reorder]) lies in [0,1].
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
