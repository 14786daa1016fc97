(* Codetomo.Pipeline: the end-to-end integration tests.  These use a
   shortened horizon to stay fast while keeping enough samples for the
   estimators. *)

module P = Codetomo.Pipeline
module Node = Mote_os.Node

let config = { P.default_config with P.horizon = Some 600_000 }

(* Profile runs are expensive; share one per workload across tests. *)
let runs =
  lazy
    (List.map (fun w -> (w.Workloads.name, P.profile ~config w)) Workloads.all)

let run_of name = List.assoc name (Lazy.force runs)

let test_profile_produces_samples () =
  List.iter
    (fun (name, run) ->
      List.iter
        (fun (proc, samples) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s has samples" name proc)
            true
            (Array.length samples > 10))
        run.P.samples)
    (Lazy.force runs)

let test_invocations_match_samples () =
  List.iter
    (fun (_, run) ->
      List.iter
        (fun (proc, samples) ->
          Alcotest.(check int) proc
            (List.assoc proc run.P.invocations)
            (Array.length samples))
        run.P.samples)
    (Lazy.force runs)

let test_samples_at_least_lower_bound () =
  (* Every exclusive sample must be at least the cheapest path cost through
     its (instrumented) procedure, minus the window correction. *)
  List.iter
    (fun (name, run) ->
      List.iter
        (fun (proc, samples) ->
          let model = P.model_of run proc in
          let paths = Tomo.Paths.enumerate ~max_paths:20000 ~max_visits:16 model in
          let min_cost = Tomo.Paths.min_cost paths in
          Array.iter
            (fun s ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s sample %.0f >= %.0f" name proc s min_cost)
                true
                (s >= min_cost -. 1.0))
            samples)
        run.P.samples)
    (Lazy.force runs)

let test_estimation_accuracy_em () =
  (* With exact timers the EM estimates should be very close to ground
     truth wherever paths are cost-distinguishable; we assert the
     suite-level mean is tight and every workload is within a loose
     bound (identifiability can blur individual parameters). *)
  let maes =
    List.concat_map
      (fun (_, run) -> List.map (fun e -> e.P.mae) (P.estimate run))
      (Lazy.force runs)
  in
  let mean = List.fold_left ( +. ) 0.0 maes /. float_of_int (List.length maes) in
  Alcotest.(check bool) (Printf.sprintf "mean MAE %.4f < 0.05" mean) true (mean < 0.05);
  List.iter
    (fun mae -> Alcotest.(check bool) (Printf.sprintf "mae %.3f < 0.25" mae) true (mae < 0.25))
    maes

let test_naive_is_worse_than_em () =
  let better = ref 0 and total = ref 0 in
  List.iter
    (fun (_, run) ->
      let with_method m = P.estimate ~opts:{ P.default_opts with P.method_ = m } run in
      let em = with_method Tomo.Estimator.Em in
      let naive = with_method Tomo.Estimator.Naive in
      List.iter2
        (fun e n ->
          if Array.length e.P.truth > 0 then begin
            incr total;
            if e.P.mae <= n.P.mae +. 1e-9 then incr better
          end)
        em naive)
    (Lazy.force runs);
  Alcotest.(check bool)
    (Printf.sprintf "EM no worse than naive on %d/%d procs" !better !total)
    true
    (!better >= (3 * !total / 4))

let test_estimated_freqs_shape () =
  let run = run_of "sense" in
  let freqs = P.estimated_freqs run (P.estimate run) in
  List.iter
    (fun (proc, freq) ->
      let inv = float_of_int (List.assoc proc run.P.invocations) in
      Alcotest.(check (float 1e-6)) "invocations preserved" inv
        (Cfgir.Freq.invocations freq))
    freqs

let test_compare_layouts_ordering () =
  (* The paper's headline: tomography ~ perfect < natural < worst.  We
     assert the weak ordering that must hold for the reproduction. *)
  List.iter
    (fun (name, run) ->
      let variants = P.compare_layouts run in
      let rate label = (List.find (fun v -> v.P.label = label) variants).P.taken_rate in
      let taken label =
        (List.find (fun v -> v.P.label = label) variants).P.taken_transfers
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: tomography beats natural" name)
        true
        (taken "tomography" < taken "natural");
      Alcotest.(check bool)
        (Printf.sprintf "%s: perfect beats natural" name)
        true
        (taken "perfect" < taken "natural");
      Alcotest.(check bool)
        (Printf.sprintf "%s: worst stalls most" name)
        true
        (taken "worst" >= taken "natural");
      Alcotest.(check bool)
        (Printf.sprintf "%s: tomography within half of perfect's headroom" name)
        true
        (taken "tomography" - taken "perfect"
        <= ((taken "natural" - taken "perfect") / 2) + 1);
      Alcotest.(check bool)
        (Printf.sprintf "%s: rate improves too" name)
        true
        (rate "tomography" < rate "natural"))
    (Lazy.force runs)

(* Every variant must equal, field for field, a separate [run_binary] of
   its own binary under [config], whether its counts were derived from
   the natural run or it ran in full. *)
let check_full_runs ~what ~config w variants =
  List.iter
    (fun v ->
      let alone = P.run_binary ~config w v.P.binary ~label:v.P.label in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s = separate run_binary" what v.P.label)
        true
        ({ v with P.derived = false } = alone))
    variants

(* (derived, run in full) over the distinct binaries other than the
   natural one, which always runs in full. *)
let derived_counts variants =
  let natural = (List.hd variants).P.binary in
  let _, derived, full =
    List.fold_left
      (fun (seen, d, f) v ->
        if List.mem v.P.binary seen then (seen, d, f)
        else if v.P.derived then (v.P.binary :: seen, d + 1, f)
        else (v.P.binary :: seen, d, f + 1))
      ([ natural ], 0, 0) variants
  in
  (derived, full)

(* The natural binary runs once; the other layouts are derived from that
   run unless the schedule guard sends them to a full run.  The counts
   are deterministic: on ctp a radio arrival sometimes falls between the
   natural and a layout's clock. *)
let test_compare_layouts_shared_run () =
  let filter = P.compare_layouts (run_of "filter") in
  Alcotest.(check (list string)) "labels in order"
    [ "natural"; "worst"; "tomography"; "perfect" ]
    (List.map (fun v -> v.P.label) filter);
  let binary label = (List.find (fun v -> v.P.label = label) filter).P.binary in
  Alcotest.(check bool) "filter: tomography binary = perfect binary" true
    (binary "tomography" = binary "perfect");
  let counts =
    List.map
      (fun (w : Workloads.t) ->
        let d, f =
          List.fold_left
            (fun (d, f) seed ->
              let config = { P.default_config with P.seed } in
              let variants = P.compare_layouts (P.profile ~config w) in
              check_full_runs
                ~what:(Printf.sprintf "%s seed %d" w.Workloads.name seed)
                ~config:(P.fresh_inputs config) w variants;
              let d', f' = derived_counts variants in
              (d + d', f + f'))
            (0, 0) [ 1; 2; 3 ]
        in
        (w.Workloads.name, Printf.sprintf "%d derived, %d full" d f))
      Workloads.all
  in
  Alcotest.(check (list (pair string string)))
    "derived and full runs per workload, seeds 1-3"
    [
      ("blink", "6 derived, 0 full");
      ("sense", "9 derived, 0 full");
      ("filter", "6 derived, 0 full");
      ("ctp", "3 derived, 6 full");
      ("monitor", "6 derived, 0 full");
    ]
    counts

(* The guard's fallbacks: an overloaded node whose queue drops tasks, a
   binary that reads the timer, and the BTFN prediction model all run
   every layout in full, with the same numbers. *)
let test_layout_fallbacks () =
  let run = run_of "filter" in
  let eval_config = P.fresh_inputs config in
  let placements =
    List.map (fun (proc, f) -> (proc, Layout.Algorithms.pettis_hansen f)) run.P.oracle_freqs
  in
  let overloaded =
    {
      Workloads.filter with
      Workloads.tasks =
        [ { Node.proc = "filter_task"; source = Node.Periodic { period = 40; offset = 13 } } ];
    }
  in
  let node_stats, _, _ = P.simulate eval_config overloaded (P.natural_binary run) in
  Alcotest.(check bool) "overloaded: the queue drops tasks" true (node_stats.Node.tasks_dropped > 0);
  let cases =
    [
      ( "overloaded",
        eval_config,
        overloaded,
        P.natural_binary run,
        placements );
      ("reads the timer", eval_config, Workloads.filter, run.P.instrumented, []);
      ( "btfn",
        { eval_config with P.prediction = Mote_machine.Machine.Predict_btfn },
        Workloads.filter,
        P.natural_binary run,
        placements );
    ]
  in
  List.iter
    (fun (what, config, w, natural, placements) ->
      let variants =
        P.evaluate_layouts config w ~natural:("natural", natural) [ ("placed", placements) ]
      in
      check_full_runs ~what ~config w variants;
      Alcotest.(check (pair int int)) (what ^ ": placed runs in full") (0, 1) (derived_counts variants))
    cases

let test_compare_layouts_cycles () =
  List.iter
    (fun (name, run) ->
      let variants = P.compare_layouts run in
      let busy label = (List.find (fun v -> v.P.label = label) variants).P.busy_cycles in
      Alcotest.(check bool)
        (Printf.sprintf "%s: tomography saves cycles" name)
        true
        (busy "tomography" < busy "natural"))
    (Lazy.force runs)

let test_run_binary_determinism () =
  let run = run_of "filter" in
  let binary = P.natural_binary run in
  let a = P.run_binary ~config run.P.workload binary ~label:"x" in
  let b = P.run_binary ~config run.P.workload binary ~label:"x" in
  Alcotest.(check int) "same cycles" a.P.busy_cycles b.P.busy_cycles;
  Alcotest.(check (float 1e-12)) "same rate" a.P.taken_rate b.P.taken_rate

let test_noise_sigma () =
  Alcotest.(check bool) "higher resolution -> more noise" true
    (P.noise_sigma { config with P.timer_resolution = 16 }
    > P.noise_sigma { config with P.timer_resolution = 1 })

let test_quantized_profiling_still_estimates () =
  (* Resolution 4: samples are coarse but EM should still land close. *)
  let w = Workloads.filter in
  let run = P.profile ~config:{ config with P.timer_resolution = 4 } w in
  let est = P.estimate run in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "quantized mae %.3f < 0.2" e.P.mae)
        true (e.P.mae < 0.2))
    est

(* --- lossy telemetry: the graceful-degradation acceptance tests --- *)

(* The field preset: 5% loss + 1% corruption, the ISSUE's operating
   point.  One faulted run per workload, shared across the tests. *)
let faulted_config =
  { config with P.faults = Some (Profilekit.Transport.field ()) }

let faulted_runs =
  lazy
    (List.map (fun w -> (w.Workloads.name, P.profile ~config:faulted_config w)) Workloads.all)

let hardened =
  {
    P.default_opts with
    P.sanitize = true;
    robust = true;
    min_samples = Tomo.Health.default_min_samples;
  }

let hardened_estimate run = P.estimate ~opts:hardened run

let test_faulted_pipeline_completes () =
  (* At the field operating point every workload must profile, estimate
     and compare layouts without raising — degradation is typed, never
     thrown. *)
  List.iter
    (fun (name, run) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: transport dropped something" name)
        true
        (match run.P.transport with Some s -> s.Profilekit.Transport.sent > s.Profilekit.Transport.delivered | None -> false);
      let ests = hardened_estimate run in
      Alcotest.(check bool) (Printf.sprintf "%s: estimations" name) true (ests <> []);
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: finite mae" name)
            true (Float.is_finite e.P.mae))
        ests;
      let variants = P.compare_layouts ~opts:hardened run in
      Alcotest.(check bool) (Printf.sprintf "%s: variants" name) true (List.length variants >= 4))
    (Lazy.force faulted_runs)

let test_sanitized_beats_unsanitized () =
  (* The ISSUE's accuracy clause: under faults, the hardened arm is at
     least as good per procedure (small tolerance for estimator noise)
     and strictly better in aggregate. *)
  let total_plain = ref 0.0 and total_hard = ref 0.0 in
  List.iter
    (fun (name, run) ->
      let plain = P.estimate run in
      let hard = hardened_estimate run in
      List.iter2
        (fun p h ->
          total_plain := !total_plain +. p.P.mae;
          total_hard := !total_hard +. h.P.mae;
          if not (Tomo.Health.is_rejected h.P.health) then
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s: hardened %.4f <= plain %.4f" name p.P.proc
                 h.P.mae p.P.mae)
              true
              (h.P.mae <= p.P.mae +. 0.02))
        plain hard)
    (Lazy.force faulted_runs);
  Alcotest.(check bool)
    (Printf.sprintf "aggregate: hardened %.4f < plain %.4f" !total_hard !total_plain)
    true
    (!total_hard < !total_plain)

let test_sample_floor_rejects () =
  (* An absurd floor rejects every procedure — with a typed verdict and
     the uniform fallback, not an exception. *)
  let run = run_of "filter" in
  let ests = P.estimate ~opts:{ P.default_opts with P.min_samples = max_int } run in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s rejected" e.P.proc)
        true
        (Tomo.Health.is_rejected e.P.health))
    ests

let test_rejected_never_rewritten () =
  (* All-Rejected estimation ⇒ the tomography variant is flagged as a
     fallback and its binary behaves exactly like natural: no Rejected
     procedure was rewritten. *)
  let run = run_of "filter" in
  let variants =
    P.compare_layouts ~opts:{ P.default_opts with P.min_samples = max_int } run
  in
  let tomo =
    List.find
      (fun v -> String.length v.P.label >= 10 && String.sub v.P.label 0 10 = "tomography")
      variants
  in
  let natural = List.find (fun v -> v.P.label = "natural") variants in
  Alcotest.(check bool)
    (Printf.sprintf "label %S flags the fallback" tomo.P.label)
    true
    (tomo.P.label <> "tomography");
  Alcotest.(check bool) "mentions fallback" true
    (String.length tomo.P.label > 10
    && String.sub tomo.P.label (String.length tomo.P.label - 9) 9 = "fallback]");
  Alcotest.(check int) "same taken transfers as natural" natural.P.taken_transfers
    tomo.P.taken_transfers;
  Alcotest.(check int) "same busy cycles as natural" natural.P.busy_cycles
    tomo.P.busy_cycles

(* Model fidelity under timer jitter.  A window is its path's exact cost
   plus the difference of two jittered reads, which has standard
   deviation √2·σ; an exclusive window also subtracts each callee's
   window, one more difference per call.  With σ = 8, every collected
   window of the five workloads lies within 6·√(1 + calls)·√2·σ of some
   enumerated path cost (calls: the procedure's call sites, none in a
   loop here).  A window that wrapped to 65535 ticks lies nowhere near
   one. *)
let test_window_fidelity_at_jitter_8 () =
  let jitter = 8.0 in
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun seed ->
          let run =
            P.profile ~config:{ P.default_config with P.seed; timer_jitter = jitter } w
          in
          List.iter
            (fun (proc, samples) ->
              let cfg = Cfgir.Cfg.of_proc_name run.P.instrumented proc in
              let calls =
                Array.fold_left
                  (fun n (b : Cfgir.Cfg.block) -> n + List.length b.Cfgir.Cfg.callees)
                  0 cfg.Cfgir.Cfg.blocks
              in
              let bound = 6.0 *. sqrt (float_of_int (1 + calls)) *. sqrt 2.0 *. jitter in
              let paths = Tomo.Paths.enumerate (P.model_of run proc) in
              let costs = (Tomo.Paths.flat paths).Tomo.Paths.sig_cost in
              let distance t =
                Array.fold_left
                  (fun acc c -> Float.min acc (Float.abs (t -. c)))
                  Float.infinity costs
              in
              let worst = Array.fold_left (fun acc t -> Float.max acc (distance t)) 0.0 samples in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s seed %d: every window within %.1f of a path cost (worst %.1f)"
                   w.Workloads.name proc seed bound worst)
                true (worst <= bound))
            run.P.samples)
        [ 1; 42; 142; 242 ])
    Workloads.all

(* Accuracy at F3b's jitter-8 point: with default options on F3's seeds,
   sense_task's mean MAE is at most 0.15 and the fitted noise scale stays
   within 2× of the timer's on every seed. *)
let test_sense_accuracy_at_jitter_8 () =
  let config = { P.default_config with P.timer_jitter = 8.0 } in
  let noise = P.noise_sigma config in
  let maes =
    List.map
      (fun seed ->
        let run = P.profile ~config:{ config with P.seed } Workloads.sense in
        let e, _, _ = P.estimate_proc run "sense_task" in
        let sigma = Option.get e.P.estimate.Tomo.Estimator.sigma in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: fitted noise %.1f within 2x of %.1f" seed sigma noise)
          true
          (sigma <= 2.0 *. noise && sigma >= noise /. 2.0);
        e.P.mae)
      [ 42; 142; 242 ]
  in
  let mean = List.fold_left ( +. ) 0.0 maes /. 3.0 in
  Alcotest.(check bool)
    (Printf.sprintf "mean sense_task MAE %.3f <= 0.15" mean)
    true (mean <= 0.15)

(* The noise-consistency verdict.  On jitter-free runs σ̂ sits at the
   timer's own scale, so no clean verdict changes; one window the timing
   model cannot produce (a 16-bit wrap, 65535 cycles) among ctp_rx_task's
   jitter-8 windows inflates σ̂ far past the timer's noise, and the
   verdict says so. *)
let test_noise_verdict () =
  List.iter
    (fun (name, run) ->
      List.iter
        (fun (e : P.estimation) ->
          let sigma = Option.get e.P.estimate.Tomo.Estimator.sigma in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: fitted noise %g within 4x of %g" name e.P.proc sigma
               (P.noise_sigma run.P.config))
            true
            (sigma <= 4.0 *. P.noise_sigma run.P.config))
        (P.estimate run))
    (Lazy.force runs);
  let run =
    P.profile ~config:{ config with P.seed = 1; timer_jitter = 8.0 } Workloads.ctp
  in
  let samples = List.assoc "ctp_rx_task" run.P.samples in
  let wrapped =
    { run with P.samples = [ ("ctp_rx_task", Array.append samples [| 65535.0 |]) ] }
  in
  let clean, _, _ = P.estimate_proc run "ctp_rx_task" in
  let e, _, _ = P.estimate_proc wrapped "ctp_rx_task" in
  let sigma e = Option.get e.P.estimate.Tomo.Estimator.sigma in
  Alcotest.(check bool)
    (Printf.sprintf "clean: fitted noise %.1f within 4x of %.1f" (sigma clean)
       (P.noise_sigma run.P.config))
    true
    (sigma clean <= 4.0 *. P.noise_sigma run.P.config);
  let says_noise r =
    let key = "timer noise" in
    let rec from i =
      i + String.length key <= String.length r
      && (String.sub r i (String.length key) = key || from (i + 1))
    in
    from 0
  in
  match e.P.health with
  | Tomo.Health.Degraded r when says_noise r -> ()
  | h ->
      Alcotest.failf "one wrapped window: fitted noise %.1f reads %s" (sigma e)
        (Tomo.Health.to_string h)

let suite =
  [
    Alcotest.test_case "profile produces samples" `Slow test_profile_produces_samples;
    Alcotest.test_case "invocations = samples" `Slow test_invocations_match_samples;
    Alcotest.test_case "samples above lower bound" `Slow test_samples_at_least_lower_bound;
    Alcotest.test_case "EM accuracy" `Slow test_estimation_accuracy_em;
    Alcotest.test_case "EM vs naive" `Slow test_naive_is_worse_than_em;
    Alcotest.test_case "estimated freqs shape" `Slow test_estimated_freqs_shape;
    Alcotest.test_case "layout ordering" `Slow test_compare_layouts_ordering;
    Alcotest.test_case "layout cycles" `Slow test_compare_layouts_cycles;
    Alcotest.test_case "shared evaluation run" `Slow test_compare_layouts_shared_run;
    Alcotest.test_case "layout fallbacks" `Slow test_layout_fallbacks;
    Alcotest.test_case "run_binary determinism" `Slow test_run_binary_determinism;
    Alcotest.test_case "noise sigma" `Quick test_noise_sigma;
    Alcotest.test_case "window fidelity at jitter 8" `Slow test_window_fidelity_at_jitter_8;
    Alcotest.test_case "sense accuracy at jitter 8" `Slow test_sense_accuracy_at_jitter_8;
    Alcotest.test_case "noise verdict" `Slow test_noise_verdict;
    Alcotest.test_case "quantized profiling" `Slow test_quantized_profiling_still_estimates;
    Alcotest.test_case "faulted pipeline completes" `Slow test_faulted_pipeline_completes;
    Alcotest.test_case "sanitized beats unsanitized" `Slow test_sanitized_beats_unsanitized;
    Alcotest.test_case "sample floor rejects" `Slow test_sample_floor_rejects;
    Alcotest.test_case "rejected never rewritten" `Slow test_rejected_never_rewritten;
  ]
