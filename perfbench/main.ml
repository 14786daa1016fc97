(* The pipeline benchmark.  One workload per process:

     main.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 repeats (set-up, timed pass) until S seconds have passed and
   at least [min_passes] passes ran, checks every job's outputs, and
   prints the end-to-end metrics.  --trace 1 runs one untraced and one
   traced pass (the traced one rebuilt from the layers' public functions,
   see recompose.ml) and prints the per-layer metrics.  The last line of
   stdout is one JSON object; the lines before it list the deterministic
   counters apart from the timings.  README.md has the rationale. *)

module P = Codetomo.Pipeline
module Session = Codetomo.Session
module Service = Fleet.Service
module Sim = Fleet.Sim
module Ingest = Fleet.Ingest
module Fusion = Fleet.Fusion
module Cfg = Cfgir.Cfg

let min_passes = 3

(* ---- job outputs: checks and fingerprints ---- *)

let in_unit x = Float.is_finite x && x >= 0.0 && x <= 1.0
let thetas_ok thetas = List.for_all (Array.for_all in_unit) thetas

(* Exact (hex-float) rendering, so equal fingerprints mean bit-equal
   outputs. *)
let hex_array buf a = Array.iter (fun x -> Printf.bprintf buf "%h," x) a

let estimations_print buf (ests : P.estimation list) =
  List.iter
    (fun (e : P.estimation) ->
      let est = e.P.estimate in
      Printf.bprintf buf "%s:%d:%d:%b:" e.P.proc e.P.sample_count est.Tomo.Estimator.iterations
        est.Tomo.Estimator.converged;
      hex_array buf est.Tomo.Estimator.theta;
      Buffer.add_char buf ';')
    ests

let variants_print buf (vs : P.variant list) =
  List.iter
    (fun (v : P.variant) ->
      Printf.bprintf buf "%s:%d:%d:%d:%d:%d:%h;" v.P.label v.P.taken_transfers v.P.busy_cycles
        v.P.idle_cycles v.P.tx_words v.P.flash_words v.P.taken_rate)
    vs

let report_print buf (r : Service.report) =
  let f = r.Service.final in
  Printf.bprintf buf "%d:%s:%d:%d:%h:%d;" f.Service.at_round f.Service.label
    f.Service.natural_taken f.Service.placed_taken f.Service.reduction f.Service.fallbacks;
  List.iter
    (fun (rr : Service.round_report) ->
      Printf.bprintf buf "%d:%d:%d:%d:%d:%d:%h;" rr.Service.round rr.Service.delivered
        rr.Service.fed rr.Service.discarded rr.Service.admitted rr.Service.rejected
        rr.Service.fused_mae)
    r.Service.round_reports;
  List.iter
    (fun (proc, t) ->
      Buffer.add_string buf proc;
      Option.iter (hex_array buf) t;
      Buffer.add_char buf ';')
    r.Service.fused;
  List.iter (fun (proc, d) -> Printf.bprintf buf "%s:%h;" proc d) r.Service.drift;
  List.iter
    (fun (id, hs) ->
      Printf.bprintf buf "%d:" id;
      List.iter (fun (_, h) -> Printf.bprintf buf "%s," (Tomo.Health.to_string h)) hs)
    r.Service.health

let fingerprint f x =
  let buf = Buffer.create 256 in
  f buf x;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---- workloads ---- *)

type quality = { mae : float; taken_reduction : float; perfect_share : float }

(* A workload: set-up (timed as setup_s); its jobs, in groups, where a
   group is one pass at the workload's stated input size and pass k runs
   group k mod (number of groups); the untraced job (the library's public
   entry points) and the traced one (recompose.ml); cheap per-job checks;
   and [evaluate], which runs once per process, outside any timed phase,
   on the first pass of every group: it computes the quality metrics and
   the expensive checks, returning the jobs that failed them.  [replay]
   runs after the traced pass to measure what the composed calls hide. *)
type workload =
  | W : {
      setup : unit -> 'st;
      teardown : 'st -> unit;
      jobs : int -> 'job list list;
      run : 'st -> 'job -> 'out;
      run_traced : 'st -> 'job -> 'out;
      print : Buffer.t -> 'out -> unit;
      check : 'out -> string option;
      evaluate : ('job * 'out) list -> quality * (int * string) list;
      count : 'job -> 'out -> unit;
      replay : 'st -> ('job * 'out) list -> (int * string) list;
    }
      -> workload

let seeds seed n = List.init n (fun i -> Stats.Rng.int (Stats.Rng.stream ~seed ~index:i) 1_000_000)

(* Enumerate every profiled procedure's path set into the session's memo,
   keyed exactly as the pipeline and the fleet service look it up. *)
let warm_paths session (w : Workloads.t) =
  let program = Recompose.instrumented (Session.compiled session w) in
  List.iter
    (fun proc ->
      let model = Tomo.Model.of_cfg (Cfg.of_proc_name program proc) in
      ignore (Session.paths_cache session w proc (fun () -> Recompose.enumerate model)))
    w.Workloads.profiled

let count = Recompose.count

(* EM facts of one job's estimations: how much work each did and whether
   it stopped at the iteration cap. *)
let count_estimations (run : P.profile_run) (ests : P.estimation list) =
  List.iter
    (fun (e : P.estimation) ->
      let est = e.P.estimate in
      if est.Tomo.Estimator.method_ = Tomo.Estimator.Em then begin
        count "em.estimations" 1;
        count "em.iterations" est.Tomo.Estimator.iterations;
        if not est.Tomo.Estimator.converged then count "em.capped" 1;
        count "em.distinct_values"
          (Array.length (Tomo.Em.group_samples (List.assoc e.P.proc run.P.samples)))
      end)
    ests

let ests_thetas ests = List.map (fun (e : P.estimation) -> e.P.estimate.Tomo.Estimator.theta) ests
let mean_mae ests = Recompose.mean (List.map (fun (e : P.estimation) -> e.P.mae) ests)

(* em_jitter: batch estimation under timer jitter, one shared session. *)
let em_workloads = [ Workloads.sense; Workloads.filter; Workloads.ctp ]
let jitters = [ 2.0; 4.0; 8.0 ]
(* Passes cycle through this many seed points; quality covers all of them.
   With two, taken_reduction varied by 11% of its median across seeds;
   with six, by about 3%. *)
let em_seed_points = 6

(* Static taken transfers of natural, tomography and perfect layouts under
   the oracle profile ({!Layout.Eval}): em_jitter places nothing, so this
   is its placement-quality figure. *)
let static_taken (run : P.profile_run) ests =
  let tomo = P.estimated_freqs run ests in
  List.fold_left
    (fun (nat, tom, perf) (proc, oracle) ->
      let eval p = Layout.Eval.taken_transfers oracle p in
      let ph f = Layout.Algorithms.pettis_hansen f in
      ( nat +. eval (Layout.Placement.natural (Cfgir.Freq.cfg oracle)),
        tom +. eval (ph (List.assoc proc tomo)),
        perf +. eval (ph oracle) ))
    (0.0, 0.0, 0.0) run.P.oracle_freqs

let reductions ~natural ~tomo ~perfect =
  let red x = 1.0 -. (x /. natural) in
  (red tomo, red tomo /. red perfect)

(* One job is one (seed, jitter) point: sense, filter and ctp profiled
   and estimated at that jitter.  Per-workload jobs would differ in cost
   by two orders of magnitude and put the percentiles on the boundaries
   between them; per jitter level they fall inside one level each (p50 at
   jitter 4, p90 at jitter 8). *)
let em_points (seed, jitter) =
  List.map (fun w -> (w, { P.default_config with P.seed; timer_jitter = jitter })) em_workloads

let jitter_tag (config : P.config) = Printf.sprintf "em.jitter%.0f" config.P.timer_jitter

let em_jitter =
  W
    {
      setup =
        (fun () ->
          let s = Session.create ~domains:1 () in
          List.iter (warm_paths s) em_workloads;
          s);
      teardown = Session.close;
      jobs =
        (fun seed ->
          List.map (fun s -> List.map (fun j -> (s, j)) jitters) (seeds seed em_seed_points));
      run =
        (fun s point ->
          List.map
            (fun (w, config) ->
              (config, Session.profile s ~config w, Session.estimate s ~config w))
            (em_points point));
      run_traced =
        (fun s point ->
          List.map
            (fun (w, config) ->
              let em0 = Trace.self_s "em" in
              let run = Recompose.profile ~config ~compiled:(Session.compiled s w) w in
              let ests =
                Recompose.estimate
                  ~paths_of:(fun proc model ->
                    Session.paths_cache s w proc (fun () -> Recompose.enumerate model))
                  run
              in
              Trace.count (jitter_tag config ^ ".s") (Trace.self_s "em" -. em0);
              (config, run, ests))
            (em_points point));
      print = (fun buf points -> List.iter (fun (_, _, ests) -> estimations_print buf ests) points);
      check =
        (fun points ->
          if List.for_all (fun (_, _, ests) -> thetas_ok (ests_thetas ests)) points then None
          else Some "theta outside [0,1]");
      evaluate =
        (fun outs ->
          let points = List.concat_map snd outs in
          let nat, tom, perf =
            List.fold_left
              (fun (a, b, c) (_, run, ests) ->
                let x, y, z = static_taken run ests in
                (a +. x, b +. y, c +. z))
              (0.0, 0.0, 0.0) points
          in
          let taken_reduction, perfect_share = reductions ~natural:nat ~tomo:tom ~perfect:perf in
          ( {
              mae = Recompose.mean (List.map (fun (_, _, ests) -> mean_mae ests) points);
              taken_reduction;
              perfect_share;
            },
            [] ));
      count =
        (fun _ points ->
          List.iter
            (fun (config, run, ests) ->
              count_estimations run ests;
              List.iter
                (fun (e : P.estimation) ->
                  if not e.P.estimate.Tomo.Estimator.converged then
                    count (jitter_tag config ^ ".capped") 1)
                ests)
            points);
      replay = (fun _ _ -> []);
    }

(* place_fresh: the one-shot profile → place → evaluate job. *)
let place_fresh =
  W
    {
      setup = (fun () -> List.map (fun w -> (w, Workloads.compiled w)) Workloads.all);
      teardown = ignore;
      jobs =
        (fun seed ->
          [
            List.concat_map
              (fun seed -> List.map (fun w -> (w, { P.default_config with P.seed })) Workloads.all)
              (seeds seed 10);
          ]);
      run =
        (fun compiled (w, config) ->
          let run = P.profile ~config ~compiled:(List.assq w compiled) w in
          (run, P.compare_layouts run, []));
      run_traced =
        (fun compiled (w, config) ->
          let run = Recompose.profile ~config ~compiled:(List.assq w compiled) w in
          let ests, variants = Recompose.compare_layouts run in
          (run, variants, ests));
      print = (fun buf (_, vs, _) -> variants_print buf vs);
      check =
        (fun (_, vs, _) ->
          match vs with
          | [ nat; _; _; _ ] when List.for_all (fun (v : P.variant) -> v.P.tx_words = nat.P.tx_words) vs
            ->
              None
          | _ -> Some "a layout changed the radio output");
      evaluate =
        (fun outs ->
          let failures = ref [] in
          let maes = ref [] in
          let sums = Array.make 3 0.0 in
          List.iteri
            (fun i (_, (run, vs, _)) ->
              let ests = P.estimate run in
              if not (thetas_ok (ests_thetas ests)) then
                failures := (i, "theta outside [0,1]") :: !failures;
              maes := mean_mae ests :: !maes;
              List.iter
                (fun (v : P.variant) ->
                  let slot =
                    match v.P.label with
                    | "natural" -> Some 0
                    | "perfect" -> Some 2
                    | "worst" -> None
                    | _ -> Some 1
                  in
                  Option.iter
                    (fun k -> sums.(k) <- sums.(k) +. float_of_int v.P.taken_transfers)
                    slot)
                vs)
            outs;
          let taken_reduction, perfect_share =
            reductions ~natural:sums.(0) ~tomo:sums.(1) ~perfect:sums.(2)
          in
          ({ mae = Recompose.mean !maes; taken_reduction; perfect_share }, !failures));
      count = (fun _ (run, _, ests) -> count_estimations run ests);
      replay = (fun _ _ -> []);
    }

(* The one-shot reference for a campaign's final fused θ: each node's
   delivered batches concatenated, collected once, estimated once, fused.
   Also returns the node runs, which the perfect-profile evaluation
   reuses. *)
let fleet_reference (config : Service.config) =
  let w = config.Service.workload in
  let compiled = Workloads.compiled w in
  let program = Recompose.instrumented compiled in
  let paths =
    List.map
      (fun proc ->
        (proc, Tomo.Paths.enumerate (Tomo.Model.of_cfg (Cfg.of_proc_name program proc))))
      w.Workloads.profiled
  in
  let sigma = P.noise_sigma config.Service.pipeline in
  let roster =
    Sim.plan ~seed:config.Service.seed ~nodes:config.Service.nodes
      ~faults:config.Service.faults ~vary_faults:config.Service.vary_faults
  in
  let node_runs =
    List.map (Sim.run_node ~workload:w ~instrumented:program ~config:config.Service.pipeline) roster
  in
  let min_samples = Stdlib.max 1 config.Service.min_samples in
  let inputs =
    List.map
      (fun (nr : Sim.node_run) ->
        let batch =
          match config.Service.batch with
          | Some b -> b
          | None -> Sim.default_batch nr ~rounds:config.Service.rounds
        in
        let records =
          List.concat_map
            (fun round -> Profilekit.Wire.decode_exn (fst (Sim.batch nr ~batch ~round)))
            (List.init config.Service.rounds Fun.id)
        in
        let collected =
          Profilekit.Probes.collect_lossy_records ~program
            ~resolution:config.Service.pipeline.P.timer_resolution records
        in
        List.map
          (fun (proc, p) ->
            let samples =
              Profilekit.Probes.samples_for collected.Profilekit.Probes.samples proc
            in
            let online = Tomo.Online.create ~decay:config.Service.decay ~sigma p in
            Tomo.Online.observe_all online samples;
            ( proc,
              {
                Fusion.theta = Tomo.Online.theta online;
                weight = Tomo.Online.effective_weight online;
                health =
                  Tomo.Health.judge ~min_samples ~converged:true
                    ~sample_count:(Array.length samples) ();
              } ))
          paths)
      node_runs
  in
  let fused =
    List.map
      (fun proc ->
        (proc, (Fusion.fuse (List.map (List.assoc proc) inputs)).Fusion.fused))
      w.Workloads.profiled
  in
  (fused, node_runs, compiled)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* Reduction of the placement built from the pooled oracle θ, evaluated
   like the fleet's own placement. *)
let perfect_reduction (config : Service.config) (report : Service.report) node_runs
    (compiled : Mote_lang.Compile.t) =
  let original = compiled.Mote_lang.Compile.program in
  (* Placement is per procedure and does not change when a procedure's
     profile is scaled, so the clean window count serves as its
     invocation count. *)
  let invocations proc =
    List.fold_left
      (fun acc (nr : Sim.node_run) -> acc +. float_of_int (List.assoc proc nr.Sim.clean_samples))
      0.0 node_runs
  in
  let profiles =
    List.map
      (fun (proc, theta) ->
        let model =
          Tomo.Model.of_cfg ~call_residual:0 ~window_correction:0 (Cfg.of_proc_name original proc)
        in
        (proc, Tomo.Model.freq_of_theta model ~theta ~invocations:(invocations proc)))
      report.Service.pooled_oracle
  in
  let placed =
    Layout.Rewrite.apply_all original ~algorithm:Layout.Algorithms.pettis_hansen ~profiles
  in
  let taken = Recompose.eval_fleet config node_runs placed ~label:"perfect" in
  1.0 -. (float_of_int taken /. float_of_int report.Service.final.Service.natural_taken)

(* Time spent in what [Ingest.ingest] hides: the same samples fed to a
   fresh online estimator, and the same batches decoded.  Labelled
   "replayed" in the output. *)
let replay_ingest (config : Service.config) (tr : Recompose.fleet_trace) =
  let sigma = P.noise_sigma config.Service.pipeline in
  let failures = ref [] in
  List.iter
    (fun ing ->
      List.iter
        (fun (proc, paths) ->
          let samples = Ingest.samples ing proc in
          let online = Tomo.Online.create ~decay:config.Service.decay ~sigma paths in
          Trace.span "online" (fun () -> Tomo.Online.observe_all online samples);
          count "online.observations" (Array.length samples);
          if not (bits_equal (Tomo.Online.theta online) (Ingest.theta ing proc)) then
            failures := (0, "online replay differs from ingest") :: !failures)
        tr.Recompose.paths)
    tr.Recompose.states;
  List.iter
    (fun (_, batches) ->
      List.iter
        (fun b -> ignore (Trace.span "decode" (fun () -> Profilekit.Wire.decode b)))
        batches)
    tr.Recompose.batches;
  !failures

let fleet ~workload ~nodes ~rounds ~sweep =
  let config seed =
    {
      (Service.default_config workload) with
      Service.nodes;
      rounds;
      seed;
      faults = Profilekit.Transport.field ();
    }
  in
  W
    {
      setup =
        (fun () ->
          let s = Session.create ~domains:1 () in
          warm_paths s workload;
          s);
      teardown = Session.close;
      jobs = (fun seed -> [ List.map config (seeds seed 1) ]);
      run = (fun s config -> (Service.run ~session:s config, None));
      run_traced =
        (fun s config ->
          let report, tr = Recompose.campaign s config in
          (report, Some tr));
      print = (fun buf (r, _) -> report_print buf r);
      check =
        (fun (r, _) ->
          if thetas_ok (List.filter_map snd r.Service.fused) then None
          else Some "fused theta outside [0,1]");
      evaluate =
        (fun outs ->
          let failures = ref [] in
          let qs =
            List.mapi
              (fun i (config, ((r : Service.report), _)) ->
                let reference, node_runs, compiled = fleet_reference config in
                let same =
                  List.for_all2
                    (fun (p, a) (q, b) ->
                      String.equal p q
                      &&
                      match (a, b) with
                      | Some a, Some b -> bits_equal a b
                      | None, None -> true
                      | _ -> false)
                    r.Service.fused reference
                in
                if not same then failures := (i, "fused theta differs from one-shot reference") :: !failures;
                let last = List.nth r.Service.round_reports (List.length r.Service.round_reports - 1) in
                let reduction = r.Service.final.Service.reduction in
                ( last.Service.fused_mae,
                  reduction,
                  reduction /. perfect_reduction config r node_runs compiled ))
              outs
          in
          ( {
              mae = Recompose.mean (List.map (fun (m, _, _) -> m) qs);
              taken_reduction = Recompose.mean (List.map (fun (_, t, _) -> t) qs);
              perfect_share = Recompose.mean (List.map (fun (_, _, p) -> p) qs);
            },
            !failures ));
      count = (fun _ _ -> ());
      replay =
        (fun s outs ->
          let failures =
            List.concat_map
              (fun (config, (_, tr)) ->
                match tr with Some tr -> replay_ingest config tr | None -> [])
              outs
          in
          (* The ROADMAP baseline: the same data spread over more rounds. *)
          List.iter
            (fun (config, _) ->
              List.iter
                (fun r ->
                  let t0 = Trace.now_ns () in
                  ignore (Service.run ~session:s { config with Service.rounds = r });
                  Trace.count (Printf.sprintf "fleet.rounds%d.s" r) (Trace.seconds_since t0))
                sweep)
            outs;
          failures);
    }

let workloads =
  [
    ("em_jitter", em_jitter);
    ("place_fresh", place_fresh);
    ("fleet_rounds", fleet ~workload:Workloads.filter ~nodes:8 ~rounds:800 ~sweep:[ 5; 80; 320; 800 ]);
    ("fleet_ctp", fleet ~workload:Workloads.ctp ~nodes:2 ~rounds:200 ~sweep:[]);
  ]

(* ---- statistics and output ---- *)

let sorted xs = List.sort Float.compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else a.(Stdlib.min (n - 1) (Stdlib.max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let json_number x = if Float.is_integer x then Printf.sprintf "%.0f" x else Printf.sprintf "%.17g" x

(* A metric that is not a finite number makes the run incorrect; it is
   printed as 0 so the line stays valid JSON. *)
let emit ~attempted ~failed metrics =
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let metrics = List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0)) metrics in
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0 && finite) attempted failed body

(* Run one pass: every job timed on its own, the pass timed as a whole.
   A job that raises is recorded as failed and the pass goes on. *)
let run_pass run st jobs =
  let t0 = Trace.now_ns () in
  let results =
    List.map
      (fun j ->
        let t = Trace.now_ns () in
        let r = try Ok (run st j) with e -> Error (Printexc.to_string e) in
        (Trace.seconds_since t, j, r))
      jobs
  in
  (Trace.seconds_since t0, results)

let timed f =
  let t0 = Trace.now_ns () in
  let x = f () in
  (Trace.seconds_since t0, x)

(* Set-up repeated until it has taken [setup_budget_s] (at least once),
   timed as the mean of the repetitions: some workloads set up in well
   under a millisecond, which one clock reading would not resolve
   steadily.  The last repetition's state is kept. *)
let setup_budget_s = 0.2

(* Every pass starts from a compacted heap, so one pass's garbage does not
   slow the next one's set-up or jobs. *)
let repeated_setup setup teardown =
  Gc.compact ();
  let t0 = Trace.now_ns () in
  let rec go reps =
    let st = setup () in
    let elapsed = Trace.seconds_since t0 in
    if elapsed >= setup_budget_s then (elapsed /. float_of_int reps, st)
    else begin
      teardown st;
      go (reps + 1)
    end
  in
  go 1

(* Per-job verdicts of one pass: raised, failed a check, or (when a
   reference pass is given) differed from it. *)
let verdicts ~check ~print ?reference results =
  List.mapi
    (fun i (_, _, r) ->
      match r with
      | Error e -> Some e
      | Ok out -> (
          match check out with
          | Some why -> Some why
          | None -> (
              match reference with
              | Some refs when not (String.equal (List.nth refs i) (fingerprint print out)) ->
                  Some "output differs from the reference pass"
              | _ -> None)))
    results

let report_failures failures =
  Array.iteri
    (fun i f -> Option.iter (fun why -> Printf.eprintf "job %d failed: %s\n" i why) f)
    failures

(* The jobs that succeeded in the given passes, each with its pass's
   verdicts and its index there, so a later check can mark it failed. *)
let outputs_of passes =
  Array.of_list
    (List.concat_map
       (fun (failures, results) ->
         List.concat
           (List.mapi
              (fun i (_, j, r) -> match r with Ok o -> [ (failures, i, j, o) ] | Error _ -> [])
              results))
       passes)

let job_outputs outs = Array.to_list (Array.map (fun (_, _, j, o) -> (j, o)) outs)

let mark outs extra =
  List.iter
    (fun (k, why) ->
      let failures, i, _, _ = outs.(k) in
      failures.(i) <- Some why)
    extra

(* Quality and the expensive checks, run once per process on the jobs
   that succeeded in the given passes.  If they raise, every job they
   cover fails. *)
let evaluate_into evaluate passes =
  let outs = outputs_of passes in
  let q, extra =
    try evaluate (job_outputs outs)
    with e ->
      ( { mae = 0.0; taken_reduction = 0.0; perfect_share = 0.0 },
        List.mapi (fun k _ -> (k, "evaluation raised " ^ Printexc.to_string e)) (job_outputs outs) )
  in
  mark outs extra;
  q

let untraced (W w) ~seed ~seconds =
  let start = Trace.now_ns () in
  let groups = Array.of_list (w.jobs seed) in
  let n_groups = Array.length groups in
  let setups = ref [] and walls = ref [] and latencies = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let references = Array.make n_groups None in
  let first_passes = ref [] in
  let tally failures =
    report_failures failures;
    attempted := !attempted + Array.length failures;
    failed := !failed + Array.fold_left (fun n f -> if f = None then n else n + 1) 0 failures
  in
  (* A new pass starts only if one more like the last still fits in the
     budget, so a run lasts about [seconds] whatever its pass length. *)
  let last = ref 0.0 in
  while
    List.length !walls < Stdlib.max min_passes n_groups
    || Trace.seconds_since start +. !last <= float_of_int seconds
  do
    let pass_start = Trace.now_ns () in
    let group = List.length !walls mod n_groups in
    let setup_s, st = repeated_setup w.setup w.teardown in
    let wall_s, results = run_pass w.run st groups.(group) in
    setups := setup_s :: !setups;
    walls := wall_s :: !walls;
    Printf.printf "pass %d setup_s %.6f wall_s %.6f\n%!" (List.length !walls) setup_s wall_s;
    latencies := List.map (fun (t, _, _) -> t) results @ !latencies;
    let failures =
      Array.of_list
        (verdicts ~check:w.check ~print:w.print ?reference:references.(group) results)
    in
    (* The first pass of each group is counted only once [evaluate] has
       checked it too, after the timed passes. *)
    if references.(group) = None then begin
      references.(group) <-
        Some
          (List.map
             (fun (_, _, r) -> match r with Ok o -> fingerprint w.print o | Error _ -> "")
             results);
      first_passes := !first_passes @ [ (failures, results) ]
    end
    else tally failures;
    w.teardown st;
    last := Trace.seconds_since pass_start
  done;
  let q = evaluate_into w.evaluate !first_passes in
  List.iter (fun (f, _) -> tally f) !first_passes;
  let job_ms = List.map (fun t -> t *. 1000.0) !latencies in
  Printf.printf "passes %d jobs %d\n" (List.length !walls) (List.length job_ms);
  Printf.printf "quality mae %.17g\n" q.mae;
  let metrics =
    [
      ("setup_s", "s", median !setups);
      ("wall_s", "s", median !walls);
      ("job_p50_ms", "ms", median job_ms);
      ("job_p90_ms", "ms", percentile 0.9 job_ms);
      ("peak_rss_mb", "MB", peak_rss_mb ());
      ("taken_reduction", "fraction", q.taken_reduction);
      ("perfect_share", "fraction", q.perfect_share);
    ]
  in
  List.iter (fun (n, u, v) -> Printf.printf "metric %s %.17g %s\n" n v u) metrics;
  Printf.printf "failed_share %d/%d\n" !failed !attempted;
  emit ~attempted:!attempted ~failed:!failed metrics

(* Span names of the timed phase, by the layer each belongs to. *)
let layer_spans =
  [
    ("em", [ "em" ]);
    ("simulate", [ "simulate" ]);
    ("evaluate", [ "evaluate" ]);
    ("place", [ "place"; "pessimal" ]);
    ("enumerate", [ "enumerate" ]);
    ("collect", [ "collect" ]);
    ("uplink", [ "uplink" ]);
    ("ingest", [ "ingest" ]);
    ("online", [ "online" ]);
    ("drift", [ "drift" ]);
    ("fuse", [ "fuse" ]);
  ]

let traced (W w) ~seed =
  let jobs = List.concat (w.jobs seed) in
  (* Untraced reference pass. *)
  let st = w.setup () in
  let wall_u, results_u = run_pass w.run st jobs in
  w.teardown st;
  (* Traced set-up and pass. *)
  Trace.enabled := true;
  let setup_t, st = timed w.setup in
  let enumerate_setup = (Trace.self_s "enumerate", Trace.calls "enumerate", Trace.alloc_mb "enumerate") in
  Trace.reset_spans ();
  let wall_t, results_t = run_pass w.run_traced st jobs in
  let spans_s = Trace.total_self_s () in
  let reference =
    List.map (fun (_, _, r) -> match r with Ok o -> fingerprint w.print o | Error _ -> "") results_u
  in
  let failures = Array.of_list (verdicts ~check:w.check ~print:w.print ~reference results_t) in
  let pass = [ (failures, results_t) ] in
  let outs = outputs_of pass in
  List.iter (fun (j, o) -> w.count j o) (job_outputs outs);
  (* Replays are spanned too, but after the pass, so they are not in
     [spans_s] and do not count against the traced wall-clock. *)
  Gc.compact ();
  mark outs (w.replay st (job_outputs outs));
  Trace.enabled := false;
  let q = evaluate_into w.evaluate pass in
  w.teardown st;
  report_failures failures;
  let failed = Array.fold_left (fun n f -> if f = None then n else n + 1) 0 failures in
  let layer_s l = List.fold_left (fun acc n -> acc +. Trace.self_s n) 0.0 (List.assoc l layer_spans) in
  let layer_calls l = List.fold_left (fun acc n -> acc + Trace.calls n) 0 (List.assoc l layer_spans) in
  let layer_alloc l = List.fold_left (fun acc n -> acc +. Trace.alloc_mb n) 0.0 (List.assoc l layer_spans) in
  let c = Trace.counter in
  let enum_setup_s, enum_setup_calls, enum_setup_alloc = enumerate_setup in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  (* Deterministic counts first, then times: a rerun on the same seed
     prints the counts byte for byte. *)
  let counts =
    ("quality.mae", "prob", q.mae)
    :: List.concat_map
      (fun (l, _) ->
        let calls =
          if l = "enumerate" then layer_calls l + enum_setup_calls else layer_calls l
        in
        [ (l ^ ".calls", "count", float_of_int calls) ])
      layer_spans
    @ [
        ("em.estimations", "count", c "em.estimations");
        ("em.iterations", "count", c "em.iterations");
        ("em.capped_share", "fraction", ratio (c "em.capped") (c "em.estimations"));
        ("em.distinct_values", "count", c "em.distinct_values");
        ("em.jitter2.capped", "count", c "em.jitter2.capped");
        ("em.jitter4.capped", "count", c "em.jitter4.capped");
        ("em.jitter8.capped", "count", c "em.jitter8.capped");
        ("simulate.cycles", "count", c "simulate.cycles");
        ("place.procs", "count", c "place.procs");
        ("enumerate.paths", "count", c "enumerate.paths");
        ("enumerate.signatures", "count", c "enumerate.signatures");
        ("collect.windows", "count", c "collect.windows");
        ("collect.discarded", "count", c "collect.discarded");
        ("uplink.records", "count", c "uplink.records");
        ("ingest.batches", "count", c "ingest.batches");
        ("ingest.records", "count", c "uplink.records");
        ("online.observations", "count", c "online.observations");
        ("fuse.admitted", "count", c "fuse.admitted");
        ("fuse.rejected", "count", c "fuse.rejected");
      ]
  in
  let online_s = layer_s "online" and decode_s = Trace.self_s "decode" in
  let times =
    List.concat_map
      (fun (l, _) ->
        let s = if l = "enumerate" then layer_s l +. enum_setup_s else layer_s l in
        let mb = if l = "enumerate" then layer_alloc l +. enum_setup_alloc else layer_alloc l in
        [ (l ^ ".s", "s", s); (l ^ ".alloc_mb", "MB", mb) ])
      layer_spans
    @ [
        ("em.jitter2.s", "s", c "em.jitter2.s");
        ("em.jitter4.s", "s", c "em.jitter4.s");
        ("em.jitter8.s", "s", c "em.jitter8.s");
        ("simulate.mcycles_per_s", "Mcycles/s", ratio (c "simulate.cycles" /. 1e6) (layer_s "simulate"));
        ("place.pessimal_s", "s", Trace.self_s "pessimal");
        ("enumerate.setup_s", "s", enum_setup_s);
        ("wire.decode_s", "s", decode_s);
        (* The replayed parts are timed apart from the ingest spans, so noise
           can push the difference below zero; it is clamped there. *)
        ("ingest.repair_s", "s", Float.max 0.0 (layer_s "ingest" -. online_s -. decode_s));
        ("online.obs_per_s", "1/s", ratio (c "online.observations") online_s);
        ("fleet.rounds5.s", "s", c "fleet.rounds5.s");
        ("fleet.rounds80.s", "s", c "fleet.rounds80.s");
        ("fleet.rounds320.s", "s", c "fleet.rounds320.s");
        ("fleet.rounds800.s", "s", c "fleet.rounds800.s");
        ("other.s", "s", wall_t -. spans_s);
        ("traced.wall_s", "s", wall_t);
        ("traced.setup_s", "s", setup_t);
        ("trace.overhead_s", "s", wall_t -. wall_u);
      ]
  in
  List.iter (fun (n, _, v) -> Printf.printf "count %s %s\n" n (json_number v)) counts;
  List.iter (fun (n, u, v) -> Printf.printf "time %s %.6f %s\n" n v u) times;
  Printf.printf "note online.s and wire.decode_s are replayed after the pass\n";
  emit ~attempted:(List.length jobs) ~failed (counts @ times)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of em_jitter, place_fresh, fleet_rounds, fleet_ctp");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measure for at least S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match (List.assoc_opt !workload workloads, !trace) with
  | None, _ ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some _, t when t <> 0 && t <> 1 ->
      prerr_endline "--trace takes 0 or 1";
      exit 2
  | Some w, 1 -> traced w ~seed:!seed
  | Some w, _ -> untraced w ~seed:!seed ~seconds:(Stdlib.max 1 !seconds)
