module P = Codetomo.Pipeline
module Devices = Mote_machine.Devices

type node = {
  id : int;
  env_seed : int;
  transport_seed : int;
  faults : Profilekit.Transport.config;
}

(* Per-node streams, split in fixed order: environment, fault variation,
   transport.  Adding a purpose at the END keeps existing fleets
   reproducible. *)
let node_streams ~seed id = Stats.Rng.split_n (Stats.Rng.stream ~seed ~index:id) 3

let vary rng (c : Profilekit.Transport.config) =
  let scale v =
    if v = 0.0 then 0.0
    else Stdlib.min 0.9 (v *. (0.5 +. Stats.Rng.unit_float rng))
  in
  {
    c with
    Profilekit.Transport.drop = scale c.Profilekit.Transport.drop;
    corrupt = scale c.corrupt;
    duplicate = scale c.duplicate;
    reorder = scale c.reorder;
  }

let plan ~seed ~nodes ~faults ~vary_faults =
  if nodes < 1 then invalid_arg "Fleet.Sim.plan: need at least one node";
  List.init nodes (fun id ->
      let s = node_streams ~seed id in
      let env_seed = Stats.Rng.int s.(0) 1_000_000 in
      let faults = if vary_faults then vary s.(1) faults else faults in
      let transport_seed = Stats.Rng.int s.(2) 1_000_000 in
      { id; env_seed; transport_seed; faults })

type node_run = {
  node : node;
  log : Devices.probe_record array;
  oracle_thetas : (string * float array) list;
  clean_samples : (string * int) list;
}

let run_node ~(workload : Workloads.t) ~instrumented ~(config : P.config) node =
  let _, devices, oracle =
    P.simulate { config with P.seed = node.env_seed } workload instrumented
  in
  let clean = Profilekit.Probes.collect ~program:instrumented ~devices in
  let per_proc f = List.map (fun proc -> (proc, f proc)) workload.Workloads.profiled in
  {
    node;
    log = Array.of_list (Devices.probe_log devices);
    oracle_thetas = per_proc (fun proc -> Profilekit.Oracle.theta_vector oracle ~proc);
    clean_samples =
      per_proc (fun proc -> Array.length (Profilekit.Probes.samples_for clean proc));
  }

let default_batch run ~rounds =
  if rounds < 1 then invalid_arg "Fleet.Sim.default_batch: need at least one round";
  Stdlib.max 1 ((Array.length run.log + rounds - 1) / rounds)

let batch run ~batch ~round =
  if batch < 1 then invalid_arg "Fleet.Sim.batch: batch size must be positive";
  let len = Array.length run.log in
  let lo = Stdlib.min len (round * batch) in
  let hi = Stdlib.min len (lo + batch) in
  let slice = Array.to_list (Array.sub run.log lo (hi - lo)) in
  let records, stats =
    Profilekit.Transport.perturb
      ~seed:(run.node.transport_seed + round)
      run.node.faults slice
  in
  (Profilekit.Wire.encode records, stats)
