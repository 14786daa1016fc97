(** Deterministic multi-node deployment simulation — the mote side of the
    fleet.

    A fleet is N copies of one workload deployed under {e different}
    inputs: each node draws its environment seed, its link-fault model
    and its transport noise from its own member of a split RNG family
    ({!Stats.Rng.stream}[ ~seed ~index:node_id]), so the whole fleet is
    reproducible from one integer and any node can be re-simulated in
    isolation.  Per-node fault variation models what "Modeling the Input
    History of Programs" observes across deployments: no two radio links
    degrade identically.

    A simulated node runs the probe-instrumented binary once for the
    full horizon and keeps its {e pristine} probe log; {!batch} then
    replays that log as the base station would receive it — sliced into
    uplink batches, each batch independently perturbed by the node's
    fault model on a per-(node, round) stream and serialized in the
    versioned {!Profilekit.Wire} format.  Slicing before perturbation
    means a record lost in round [r] is lost forever, exactly like a
    real uplink; and because every batch is keyed by (node, round), the
    ingest order across nodes cannot change a byte of any batch — the
    aggregation service can shard nodes over domains freely. *)

type node = {
  id : int;
  env_seed : int;  (** Per-node environment seed (phenomenon inputs). *)
  transport_seed : int;  (** Base seed of the node's uplink noise. *)
  faults : Profilekit.Transport.config;
      (** The node's own link pathology — the fleet base model, with
          rates scaled per node when variation is on. *)
}

val plan :
  seed:int ->
  nodes:int ->
  faults:Profilekit.Transport.config ->
  vary_faults:bool ->
  node list
(** Draw the fleet roster.  [vary_faults] scales each node's nonzero
    drop/corrupt/duplicate/reorder rates by a uniform factor in
    [0.5, 1.5) from the node's fault stream (clamped to 0.9). *)

type node_run = {
  node : node;
  log : Mote_machine.Devices.probe_record array;
      (** Pristine on-mote probe log, oldest first. *)
  oracle_thetas : (string * float array) list;
      (** Ground truth under this node's inputs. *)
  clean_samples : (string * int) list;
      (** Windows per procedure in the pristine log — what a lossless
          link would have delivered. *)
}

val run_node :
  workload:Workloads.t ->
  instrumented:Mote_isa.Program.t ->
  config:Codetomo.Pipeline.config ->
  node ->
  node_run
(** Simulate one node for the configured horizon with the oracle
    attached: {!Codetomo.Pipeline.simulate} under [config] with the
    node's [env_seed] as its seed, so a clean-link node at seed [s] sees
    exactly the telemetry and ground truth of a
    {!Codetomo.Pipeline.profile} run at seed [s].  [config]'s own seed
    and faults are ignored, so a node_run depends only on (workload,
    instrumented binary, timing config, node). *)

val default_batch : node_run -> rounds:int -> int
(** The batch size that spreads this node's log evenly over [rounds]
    uplink rounds (at least 1). *)

val batch :
  node_run -> batch:int -> round:int -> string * Profilekit.Transport.stats
(** The Wire-serialized uplink batch for [round] (0-based): records
    [round*batch, (round+1)*batch) of the pristine log, perturbed by the
    node's fault model under seed [transport_seed + round].  Rounds past
    the end of the log yield an empty (but well-formed, versioned)
    batch. *)
