(** The fleet aggregation service — many lossy nodes in, one placement
    out.

    The paper profiles one mote; a deployment has hundreds.  This
    service closes that gap in simulation: N nodes ({!Sim}) stream
    probe-record batches over their faulty uplinks in rounds; the base
    station ingests each node's batches incrementally ({!Ingest}), keeps
    a {!Tomo.Online} estimator per (node, procedure) — O(parameters)
    sufficient statistics, though {!Ingest} also keeps every fed sample
    for the end-of-campaign drift check, so memory still grows with the
    stream — pools the per-node estimates with health gating ({!Fusion}), and
    periodically turns the fused fleet profile into a code placement
    whose fleet-wide taken-branch reduction it measures across every
    node's own inputs.

    Determinism: node simulation, batch perturbation and ingest are all
    keyed by (seed, node, round), rounds are barriers, and fusion folds
    node states in roster order — so the report is byte-identical at any
    domain count.  Node work (simulation, ingest, and placement
    evaluation — one {!Codetomo.Pipeline.evaluate_layouts} call per node
    per placement) shards across the session's pool; the session's
    compiled/paths caches are reused, so the fleet enumerates each
    procedure's path set exactly once no matter how many nodes vote on
    it. *)

type config = {
  workload : Workloads.t;
  nodes : int;
  rounds : int;
  batch : int option;
      (** Records per uplink batch; [None] spreads each node's log
          evenly over the rounds. *)
  seed : int;  (** Fleet seed — every node stream splits off this. *)
  faults : Profilekit.Transport.config;
      (** Base link-fault model ({!Profilekit.Transport.default} for
          clean links, [field ()] for the canonical deployment). *)
  vary_faults : bool;  (** Scale fault rates per node (see {!Sim.plan}). *)
  pipeline : Codetomo.Pipeline.config;
      (** Timing config (resolution, jitter, horizon, prediction) shared
          by all nodes; its seed and faults fields are ignored — the
          fleet draws per-node seeds and owns the fault model. *)
  decay : float;  (** Forgetting factor of the online estimators. *)
  min_samples : int;
      (** Sample floor below which a (node, procedure) estimate is
          Rejected and excluded from fusion. *)
  replace_every : int;
      (** Re-run placement every k rounds (0 = final round only; the
          final round always places). *)
}

val default_config : Workloads.t -> config
(** 8 nodes, 10 rounds, even batches, seed 42, clean links, fault
    variation on, default pipeline timing, decay 0.999, the
    {!Tomo.Health.default_min_samples} floor, placement at the end. *)

type placement = {
  at_round : int;
  label : string;
      (** ["fleet-tomography"], with ["[k fallback]"] appended when k
          procedures had no admissible evidence and kept their natural
          layout. *)
  natural_taken : int;
      (** Stalling transfers of the natural binary, summed over the
          nodes: each node's count is the natural variant of its own
          {!Codetomo.Pipeline.evaluate_layouts} call, under
          {!Codetomo.Pipeline.fresh_inputs} of the pipeline config at
          the node's environment seed. *)
  placed_taken : int;
      (** Same, for the fleet-placed binary (Pettis–Hansen on the fused
          profile), the placed variant of that same call. *)
  reduction : float;  (** [1 - placed/natural]. *)
  fallbacks : int;
}

type round_report = {
  round : int;  (** 1-based. *)
  delivered : int;  (** Cumulative records received, fleet-wide. *)
  fed : int;  (** Cumulative samples fed to estimators, fleet-wide. *)
  discarded : int;
      (** Cumulative frames abandoned for a missing record, fleet-wide
          ({!Ingest.discarded}); never decreases.  Frames merely open at
          a batch tail are not counted. *)
  admitted : int;  (** (node, proc) estimates admitted to fusion. *)
  rejected : int;  (** (node, proc) estimates health-excluded. *)
  fused_mae : float;
      (** Mean abs error of the fused thetas against the pooled oracle
          (procedures with no admissible evidence count their uniform
          fallback) — the convergence curve. *)
  placement : placement option;
}

type report = {
  roster : Sim.node list;
  round_reports : round_report list;  (** Oldest first. *)
  final : placement;
  fused : (string * float array option) list;
      (** Final fused θ per procedure ([None] = no admissible node). *)
  pooled_oracle : (string * float array) list;
      (** Clean-sample-weighted mean of the node oracles — the fleet's
          ground truth. *)
  health : (int * (string * Tomo.Health.t) list) list;
      (** Final verdict per (node id, procedure). *)
  drift : (string * float) list;
      (** Max {!Tomo.Windowed} window-to-window drift per procedure
          across nodes (0 where no node fed enough samples) — the
          re-placement signal. *)
}

val run : ?session:Codetomo.Session.t -> config -> report
(** Run the whole campaign.  With [?session], node work fans out over
    the session's pool and compiled/paths artifacts come from its memo
    tables; without, everything runs serially and privately.  Output is
    identical either way.
    @raise Invalid_argument on a non-positive node, round or batch
    count, a decay outside (0,1] (NaN included), or a base fault model that
    {!Profilekit.Transport.validate} rejects — all before any node is
    simulated. *)
