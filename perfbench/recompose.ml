(* The library's composed entry points — [Pipeline.profile],
   [Pipeline.estimate], [Pipeline.compare_layouts] and
   [Fleet.Service.run] — rebuilt here from the layers' public functions,
   in the same order, with a span around each call into a layer.  The
   traced run uses these and checks that they reproduce the untraced
   outputs exactly, so any drift between this file and the library shows
   up as a failed job rather than as silently wrong per-layer numbers. *)

module P = Codetomo.Pipeline
module Session = Codetomo.Session
module Service = Fleet.Service
module Sim = Fleet.Sim
module Ingest = Fleet.Ingest
module Fusion = Fleet.Fusion
module Cfg = Cfgir.Cfg
module Devices = Mote_machine.Devices
module Machine = Mote_machine.Machine
module Node = Mote_os.Node
module Probes = Profilekit.Probes
module Oracle = Profilekit.Oracle

let span = Trace.span
let count name n = Trace.count name (float_of_int n)

let horizon (config : P.config) (w : Workloads.t) =
  Option.value ~default:w.Workloads.horizon config.P.horizon

let instrumented (compiled : Mote_lang.Compile.t) =
  Mote_isa.Asm.assemble (Probes.instrument compiled.Mote_lang.Compile.items)

(* Path enumeration for one procedure model, as the estimator's cache
   entry would compute it. *)
let enumerate model =
  let paths = span "enumerate" (fun () -> Tomo.Paths.enumerate model) in
  count "enumerate.paths" (Array.length (Tomo.Paths.paths paths));
  count "enumerate.signatures" (Tomo.Paths.num_signatures paths);
  paths

(* [Pipeline.profile] on a clean link: simulate, then collect. *)
let profile ~(config : P.config) ~compiled (w : Workloads.t) =
  let instrumented = instrumented compiled in
  let devices =
    Devices.create ~timer_resolution:config.P.timer_resolution
      ~timer_jitter:config.P.timer_jitter
      ~rng:(Stats.Rng.create (config.P.seed + 7919))
      ()
  in
  let machine = Machine.create ~prediction:config.P.prediction ~program:instrumented ~devices () in
  let env = Env.create { w.Workloads.env_config with Env.seed = config.P.seed } in
  let node = Node.create ~machine ~env ~tasks:w.Workloads.tasks () in
  let oracle = Oracle.attach machine in
  let node_stats = span "simulate" (fun () -> Node.run node ~until:(horizon config w)) in
  count "simulate.cycles" node_stats.Node.total_cycles;
  let sample_set =
    span "collect" (fun () -> Probes.collect ~program:instrumented ~devices)
  in
  let samples =
    List.map (fun proc -> (proc, Probes.samples_for sample_set proc)) w.Workloads.profiled
  in
  List.iter (fun (_, s) -> count "collect.windows" (Array.length s)) samples;
  let original = compiled.Mote_lang.Compile.program in
  let oracle_thetas =
    List.map (fun proc -> (proc, Oracle.theta_vector oracle ~proc)) w.Workloads.profiled
  in
  let oracle_freqs =
    List.map
      (fun proc ->
        let inv = float_of_int (Node.invocations node_stats proc) in
        let counts =
          Oracle.counts oracle ~proc
          |> List.map (fun (id, (tk, fl)) -> (id, (float_of_int tk, float_of_int fl)))
        in
        ( proc,
          Profilekit.Flowcount.freq_of_branch_counts (Cfg.of_proc_name original proc)
            ~invocations:inv ~counts ))
      w.Workloads.profiled
  in
  Oracle.detach oracle;
  {
    P.workload = w;
    compiled;
    instrumented;
    config;
    samples;
    oracle_thetas;
    oracle_freqs;
    invocations = List.map (fun (proc, s) -> (proc, Array.length s)) samples;
    node_stats;
    transport = None;
    discarded = 0;
  }

(* [Pipeline.estimate] with the EM method and every robustness knob at its
   default.  [paths_of] supplies a procedure's path set: the session's
   warmed cache, or a fresh enumeration. *)
let estimate ~paths_of (run : P.profile_run) =
  List.map
    (fun proc ->
      let samples = List.assoc proc run.P.samples in
      let model = P.model_of run proc in
      let paths = paths_of proc model in
      let truth = List.assoc proc run.P.oracle_thetas in
      let n = Array.length samples in
      let estimate, health =
        if n < 1 then
          ( Tomo.Estimator.fallback model,
            Tomo.Health.judge ~min_samples:1 ~converged:true ~sample_count:n () )
        else
          let e =
            span "em" (fun () ->
                Tomo.Estimator.run ~method_:Tomo.Estimator.Em
                  ~noise_sigma:(P.noise_sigma run.P.config) ~paths model ~samples)
          in
          ( e,
            Tomo.Health.judge ~min_samples:1 ~converged:e.Tomo.Estimator.converged
              ~sample_count:n () )
      in
      let mae =
        if Array.length truth = 0 then 0.0
        else Stats.Metrics.mae estimate.Tomo.Estimator.theta truth
      in
      { P.proc; estimate; truth; mae; sample_count = n; health; sanitize_report = None })
    run.P.workload.Workloads.profiled

let place natural profiles =
  count "place.procs" (List.length profiles);
  span "place" (fun () ->
      Layout.Rewrite.apply_all natural ~algorithm:Layout.Algorithms.pettis_hansen ~profiles)

(* [Pipeline.compare_layouts] with no context: every procedure's path set
   is enumerated afresh, as a one-shot [ctomo place] does. *)
let compare_layouts (run : P.profile_run) =
  let eval_config = { run.P.config with P.seed = run.P.config.P.seed + 1000 } in
  let estimations = estimate ~paths_of:(fun _ model -> enumerate model) run in
  let usable, fallbacks =
    List.partition (fun e -> not (Tomo.Health.is_rejected e.P.health)) estimations
  in
  let tomo_label =
    match fallbacks with
    | [] -> "tomography"
    | fs -> Printf.sprintf "tomography[%d fallback]" (List.length fs)
  in
  let tomo_freqs = P.estimated_freqs run usable in
  let natural = P.natural_binary run in
  let tomo = place natural tomo_freqs in
  let perfect = place natural run.P.oracle_freqs in
  count "place.procs" (List.length run.P.oracle_freqs);
  let worst = span "pessimal" (fun () -> P.worst_binary run) in
  ( estimations,
    List.map
      (fun (label, binary) ->
        span "evaluate" (fun () ->
            P.run_binary ~config:eval_config run.P.workload binary ~label))
      [ ("natural", natural); ("worst", worst); (tomo_label, tomo); ("perfect", perfect) ] )

(* ---- Fleet.Service.run ---- *)

let pooled_oracle procs (node_runs : Sim.node_run list) =
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
      let k = match votes with (theta, _) :: _ -> Array.length theta | [] -> 0 in
      let acc = Array.make k 0.0 in
      if total > 0.0 then
        List.iter
          (fun (theta, w) ->
            Array.iteri (fun j v -> acc.(j) <- acc.(j) +. (w *. v /. total)) theta)
          votes
      else begin
        let n = float_of_int (Stdlib.max 1 (List.length votes)) in
        List.iter
          (fun (theta, _) -> Array.iteri (fun j v -> acc.(j) <- acc.(j) +. (v /. n)) theta)
          votes
      end;
      (proc, acc))
    procs

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let fused_mae oracle fusions =
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

(* Evaluate one binary on every node's own evaluation inputs. *)
let eval_fleet (config : Service.config) node_runs binary ~label =
  List.fold_left
    (fun acc (nr : Sim.node_run) ->
      let cfg =
        { config.Service.pipeline with P.seed = nr.Sim.node.Sim.env_seed + 1000; faults = None }
      in
      let v =
        span "evaluate" (fun () -> P.run_binary ~config:cfg config.Service.workload binary ~label)
      in
      acc + v.P.taken_transfers)
    0 node_runs

(* What the traced campaign leaves behind for the replays: every
   delivered batch per node, and the final ingest states. *)
type fleet_trace = {
  batches : (Sim.node_run * string list) list;
  states : Ingest.t list;
  paths : (string * Tomo.Paths.t) list;
}

(* [Fleet.Service.run] with a one-domain session: its map is the plain
   list map, so the order of calls below is the service's own. *)
let campaign session (config : Service.config) =
  let w = config.Service.workload in
  let procs = w.Workloads.profiled in
  let compiled = Session.compiled session w in
  let instrumented = instrumented compiled in
  let original = compiled.Mote_lang.Compile.program in
  let paths =
    List.map
      (fun proc ->
        let model = Tomo.Model.of_cfg (Cfg.of_proc_name instrumented proc) in
        (proc, Session.paths_cache session w proc (fun () -> enumerate model)))
      procs
  in
  let sigma = P.noise_sigma config.Service.pipeline in
  let roster =
    Sim.plan ~seed:config.Service.seed ~nodes:config.Service.nodes
      ~faults:config.Service.faults ~vary_faults:config.Service.vary_faults
  in
  let node_runs =
    List.map
      (fun node ->
        let nr =
          span "simulate" (fun () ->
              Sim.run_node ~workload:w ~instrumented ~config:config.Service.pipeline node)
        in
        count "simulate.cycles" (horizon config.Service.pipeline w);
        nr)
      roster
  in
  let oracle = pooled_oracle procs node_runs in
  let states =
    List.map
      (fun (nr : Sim.node_run) ->
        let batch =
          match config.Service.batch with
          | Some b -> b
          | None -> Sim.default_batch nr ~rounds:config.Service.rounds
        in
        ( nr,
          batch,
          Ingest.create ~node:nr.Sim.node ~program:instrumented
            ~resolution:config.Service.pipeline.P.timer_resolution ~sigma
            ~decay:config.Service.decay ~procs:paths,
          ref [] ))
      node_runs
  in
  let min_samples = Stdlib.max 1 config.Service.min_samples in
  let fuse_all () =
    span "fuse" (fun () ->
        List.map
          (fun proc ->
            ( proc,
              Fusion.fuse
                (List.map
                   (fun (_, _, ing, _) -> Ingest.fusion_input ing ~min_samples proc)
                   states) ))
          procs)
  in
  let natural_evals = ref None in
  let place_fleet ~at_round fusions =
    let profiles, fallbacks =
      List.fold_left
        (fun (profiles, fallbacks) (proc, (fu : Fusion.result)) ->
          match fu.Fusion.fused with
          | None -> (profiles, fallbacks + 1)
          | Some theta ->
              let model =
                Tomo.Model.of_cfg ~call_residual:0 ~window_correction:0
                  (Cfg.of_proc_name original proc)
              in
              let invocations =
                float_of_int
                  (List.fold_left (fun acc (_, _, ing, _) -> acc + Ingest.fed ing proc) 0 states)
              in
              ((proc, Tomo.Model.freq_of_theta model ~theta ~invocations) :: profiles, fallbacks))
        ([], 0) fusions
    in
    let label =
      if fallbacks = 0 then "fleet-tomography"
      else Printf.sprintf "fleet-tomography[%d fallback]" fallbacks
    in
    let placed = place original (List.rev profiles) in
    let natural_taken =
      match !natural_evals with
      | Some n -> n
      | None ->
          let n = eval_fleet config node_runs original ~label:"natural" in
          natural_evals := Some n;
          n
    in
    let placed_taken = eval_fleet config node_runs placed ~label in
    {
      Service.at_round;
      label;
      natural_taken;
      placed_taken;
      reduction =
        (if natural_taken = 0 then 0.0
         else 1.0 -. (float_of_int placed_taken /. float_of_int natural_taken));
      fallbacks;
    }
  in
  let round_reports = ref [] in
  let final = ref None in
  for r = 1 to config.Service.rounds do
    List.iter
      (fun (nr, batch, ing, kept) ->
        let b, stats = span "uplink" (fun () -> Sim.batch nr ~batch ~round:(r - 1)) in
        count "uplink.records" stats.Profilekit.Transport.delivered;
        count "ingest.batches" 1;
        kept := b :: !kept;
        span "ingest" (fun () -> Ingest.ingest ing b))
      states;
    let fusions = fuse_all () in
    let placement =
      if
        (config.Service.replace_every > 0 && r mod config.Service.replace_every = 0)
        || r = config.Service.rounds
      then begin
        let p = place_fleet ~at_round:r fusions in
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
    count "fuse.admitted" admitted;
    count "fuse.rejected" rejected;
    let total f = List.fold_left (fun acc (_, _, ing, _) -> acc + f ing) 0 states in
    round_reports :=
      {
        Service.round = r;
        delivered = total Ingest.delivered;
        fed = total Ingest.total_fed;
        discarded = total Ingest.discarded;
        admitted;
        rejected;
        fused_mae = fused_mae oracle fusions;
        placement;
      }
      :: !round_reports
  done;
  let fusions = fuse_all () in
  let drift =
    List.map
      (fun proc ->
        let p = List.assoc proc paths in
        let per_node =
          List.map
            (fun (_, _, ing, _) ->
              let samples = Ingest.samples ing proc in
              let n = Array.length samples in
              let window_size = Stdlib.max 20 (n / 4) in
              if n < Stdlib.max 1 (window_size / 2) then 0.0
              else
                (span "drift" (fun () -> Tomo.Windowed.estimate ~window_size ~sigma p ~samples))
                  .Tomo.Windowed.max_drift)
            states
        in
        (proc, List.fold_left Stdlib.max 0.0 per_node))
      procs
  in
  let report =
    {
      Service.roster;
      round_reports = List.rev !round_reports;
      final = Option.get !final;
      fused = List.map (fun (proc, (fu : Fusion.result)) -> (proc, fu.Fusion.fused)) fusions;
      pooled_oracle = oracle;
      health =
        List.map
          (fun (_, _, ing, _) ->
            ( (Ingest.node ing).Sim.id,
              List.map
                (fun proc -> (proc, (Ingest.fusion_input ing ~min_samples proc).Fusion.health))
                procs ))
          states;
      drift;
    }
  in
  ( report,
    {
      batches = List.map (fun (nr, _, _, kept) -> (nr, List.rev !kept)) states;
      states = List.map (fun (_, _, ing, _) -> ing) states;
      paths;
    } )
