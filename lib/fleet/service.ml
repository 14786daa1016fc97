module P = Codetomo.Pipeline
module Session = Codetomo.Session

type config = {
  workload : Workloads.t;
  nodes : int;
  rounds : int;
  batch : int option;
  seed : int;
  faults : Profilekit.Transport.config;
  vary_faults : bool;
  pipeline : P.config;
  decay : float;
  min_samples : int;
  replace_every : int;
}

let default_config workload =
  {
    workload;
    nodes = 8;
    rounds = 10;
    batch = None;
    seed = 42;
    faults = Profilekit.Transport.default;
    vary_faults = true;
    pipeline = P.default_config;
    decay = 0.999;
    min_samples = Tomo.Health.default_min_samples;
    replace_every = 0;
  }

type placement = {
  at_round : int;
  label : string;
  natural_taken : int;
  placed_taken : int;
  reduction : float;
  fallbacks : int;
}

type round_report = {
  round : int;
  delivered : int;
  fed : int;
  discarded : int;
  admitted : int;
  rejected : int;
  fused_mae : float;
  placement : placement option;
}

type report = {
  roster : Sim.node list;
  round_reports : round_report list;
  final : placement;
  fused : (string * float array option) list;
  pooled_oracle : (string * float array) list;
  health : (int * (string * Tomo.Health.t) list) list;
  drift : (string * float) list;
}

let validate config =
  if config.nodes < 1 then invalid_arg "Fleet.Service: need at least one node";
  if config.rounds < 1 then invalid_arg "Fleet.Service: need at least one round";
  (match config.batch with
  | Some b when b < 1 -> invalid_arg "Fleet.Service: batch size must be positive"
  | _ -> ());
  if not (config.decay > 0.0 && config.decay <= 1.0) then
    invalid_arg "Fleet.Service: decay outside (0,1]";
  if config.replace_every < 0 then
    invalid_arg "Fleet.Service: replace_every must be non-negative";
  Profilekit.Transport.validate config.faults

(* The fleet's ground truth: each node sees its own inputs, so per-node
   oracle thetas differ; the fleet target is their clean-sample-weighted
   mean — what a lossless, infinitely patient base station would call
   the deployment's branch behaviour. *)
let pooled_oracle procs node_runs =
  List.map
    (fun proc ->
      let votes =
        List.map
          (fun (nr : Sim.node_run) ->
            ( List.assoc proc nr.Sim.oracle_thetas,
              float_of_int (List.assoc proc nr.Sim.clean_samples) ))
          node_runs
      in
      let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 votes in
      let k =
        match votes with (theta, _) :: _ -> Array.length theta | [] -> 0
      in
      let acc = Array.make k 0.0 in
      if total > 0.0 then
        List.iter
          (fun (theta, w) ->
            Array.iteri (fun j v -> acc.(j) <- acc.(j) +. (w *. v /. total)) theta)
          votes
      else begin
        let n = float_of_int (Stdlib.max 1 (List.length votes)) in
        List.iter
          (fun (theta, _) ->
            Array.iteri (fun j v -> acc.(j) <- acc.(j) +. (v /. n)) theta)
          votes
      end;
      (proc, acc))
    procs

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let run ?session config =
  validate config;
  let w = config.workload in
  let procs = w.Workloads.profiled in
  let pmap f xs =
    match session with Some s -> Session.map_list s f xs | None -> List.map f xs
  in
  let compiled =
    match session with Some s -> Session.compiled s w | None -> Workloads.compiled w
  in
  let instrumented =
    Mote_isa.Asm.assemble (Profilekit.Probes.instrument compiled.Mote_lang.Compile.items)
  in
  let original = compiled.Mote_lang.Compile.program in
  (* One path set per procedure for the whole fleet: the session memo
     returns the same enumeration every node's estimator shares, and the
     one the pipeline's estimates read. *)
  let ctx = match session with Some s -> Session.ctx s w | None -> P.Ctx.make () in
  let paths = List.map (fun proc -> (proc, P.path_set ~ctx instrumented proc)) procs in
  let sigma = P.noise_sigma config.pipeline in
  let roster =
    Sim.plan ~seed:config.seed ~nodes:config.nodes ~faults:config.faults
      ~vary_faults:config.vary_faults
  in
  (* Stage 1: simulate every node for the full horizon (sharded). *)
  let node_runs =
    pmap (Sim.run_node ~workload:w ~instrumented ~config:config.pipeline) roster
  in
  let oracle = pooled_oracle procs node_runs in
  let states =
    List.map
      (fun (nr : Sim.node_run) ->
        let batch =
          match config.batch with
          | Some b -> b
          | None -> Sim.default_batch nr ~rounds:config.rounds
        in
        ( nr,
          batch,
          Ingest.create ~node:nr.Sim.node ~program:instrumented
            ~resolution:config.pipeline.P.timer_resolution ~sigma ~decay:config.decay
            ~procs:paths ))
      node_runs
  in
  let min_samples = Stdlib.max 1 config.min_samples in
  let fuse_all () =
    List.map
      (fun proc ->
        ( proc,
          Fusion.fuse
            (List.map (fun (_, _, ing) -> Ingest.fusion_input ing ~min_samples proc) states)
        ))
      procs
  in
  let fused_mae fusions =
    mean
      (List.map
         (fun (proc, (fu : Fusion.result)) ->
           let truth = List.assoc proc oracle in
           if Array.length truth = 0 then 0.0
           else
             let theta =
               match fu.Fusion.fused with
               | Some t -> t
               | None -> Array.make (Array.length truth) 0.5
             in
             Stats.Metrics.mae theta truth)
         fusions)
  in
  let place ~at_round fusions =
    let placements, fallbacks =
      List.fold_left
        (fun (placements, fallbacks) (proc, (fu : Fusion.result)) ->
          match fu.Fusion.fused with
          | None -> (placements, fallbacks + 1)
          | Some theta ->
              let invocations =
                float_of_int
                  (List.fold_left (fun acc (_, _, ing) -> acc + Ingest.fed ing proc) 0 states)
              in
              let freq = P.freq_of_theta original ~proc ~theta ~invocations in
              ((proc, Layout.Algorithms.pettis_hansen freq) :: placements, fallbacks))
        ([], 0) fusions
    in
    let label =
      if fallbacks = 0 then "fleet-tomography"
      else Printf.sprintf "fleet-tomography[%d fallback]" fallbacks
    in
    (* Each node scores both layouts on its own evaluation inputs, in one
       run of the natural binary wherever the placed one can be derived
       from it. *)
    let placed = [ (label, List.rev placements) ] in
    let evals =
      pmap
        (fun (nr : Sim.node_run) ->
          P.evaluate_layouts
            (P.fresh_inputs { config.pipeline with P.seed = nr.Sim.node.Sim.env_seed })
            w ~natural:("natural", original) placed)
        node_runs
    in
    let taken i =
      List.fold_left (fun acc vs -> acc + (List.nth vs i).P.taken_transfers) 0 evals
    in
    let natural_taken = taken 0 and placed_taken = taken 1 in
    {
      at_round;
      label;
      natural_taken;
      placed_taken;
      reduction =
        (if natural_taken = 0 then 0.0
         else 1.0 -. (float_of_int placed_taken /. float_of_int natural_taken));
      fallbacks;
    }
  in
  (* Stage 2: the round loop.  Each round is a barrier: every node
     ingests its (node, round)-keyed batch — sharded, each task mutating
     only its own state — then fusion folds the states in roster order. *)
  let round_reports = ref [] in
  let final = ref None in
  for r = 1 to config.rounds do
    ignore
      (pmap
         (fun (nr, batch, ing) ->
           let b, _stats = Sim.batch nr ~batch ~round:(r - 1) in
           Ingest.ingest ing b)
         states);
    let fusions = fuse_all () in
    let placement =
      if (config.replace_every > 0 && r mod config.replace_every = 0) || r = config.rounds
      then begin
        let p = place ~at_round:r fusions in
        final := Some p;
        Some p
      end
      else None
    in
    let admitted, rejected =
      List.fold_left
        (fun (a, x) (_, (fu : Fusion.result)) -> (a + fu.Fusion.admitted, x + fu.Fusion.rejected))
        (0, 0) fusions
    in
    round_reports :=
      {
        round = r;
        delivered = List.fold_left (fun acc (_, _, ing) -> acc + Ingest.delivered ing) 0 states;
        fed = List.fold_left (fun acc (_, _, ing) -> acc + Ingest.total_fed ing) 0 states;
        discarded = List.fold_left (fun acc (_, _, ing) -> acc + Ingest.discarded ing) 0 states;
        admitted;
        rejected;
        fused_mae = fused_mae fusions;
        placement;
      }
      :: !round_reports
  done;
  let fusions = fuse_all () in
  (* Windowed drift per procedure: does any node's stream say the
     placement is going stale?  Adaptive window so short campaigns still
     yield a trajectory. *)
  let drift =
    List.map
      (fun proc ->
        let p = List.assoc proc paths in
        let per_node =
          pmap
            (fun (_, _, ing) ->
              let samples = Ingest.samples ing proc in
              let n = Array.length samples in
              let window_size = Stdlib.max 20 (n / 4) in
              if n < Stdlib.max 1 (window_size / 2) then 0.0
              else (Tomo.Windowed.estimate ~window_size ~sigma p ~samples).Tomo.Windowed.max_drift)
            states
        in
        (proc, List.fold_left Stdlib.max 0.0 per_node))
      procs
  in
  {
    roster;
    round_reports = List.rev !round_reports;
    final = Option.get !final;
    fused = List.map (fun (proc, (fu : Fusion.result)) -> (proc, fu.Fusion.fused)) fusions;
    pooled_oracle = oracle;
    health =
      List.map
        (fun (_, _, ing) ->
          ( (Ingest.node ing).Sim.id,
            List.map
              (fun proc -> (proc, (Ingest.fusion_input ing ~min_samples proc).Fusion.health))
              procs ))
        states;
    drift;
  }
