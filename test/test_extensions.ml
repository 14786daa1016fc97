(* Tomo extensions (Confidence, Windowed) and the random program
   generator, including whole-stack property tests on generated code. *)

module Isa = Mote_isa.Isa
module Asm = Mote_isa.Asm
module Cfg = Cfgir.Cfg
module Machine = Mote_machine.Machine
module Devices = Mote_machine.Devices
module Compile = Mote_lang.Compile

(* Diamond model shared with test_tomo (rebuilt here to keep modules
   independent). *)
let diamond_model () =
  let p =
    Asm.assemble
      [
        Asm.Proc "f"; Asm.cmpi 0 0; Asm.br Isa.Eq "arm2"; Asm.movi 1 1; Asm.movi 1 2;
        Asm.movi 1 3; Asm.jmp "join"; Asm.Label "arm2"; Asm.movi 1 9; Asm.Label "join";
        Asm.ret;
      ]
  in
  Tomo.Model.of_cfg ~call_residual:0 ~window_correction:0 (Cfg.of_proc_name p "f")

let synth_samples ?(n = 2000) theta seed =
  let m = diamond_model () in
  let p = Tomo.Paths.enumerate m in
  let rng = Stats.Rng.create seed in
  (p, Tomo.Paths.sample_costs rng p ~theta:[| theta |] ~n)

(* --- Confidence --- *)

let information paths samples =
  let fit = Tomo.Em.estimate paths ~samples in
  Tomo.Confidence.information paths ~samples ~point:fit.Tomo.Em.theta ~sigma:fit.Tomo.Em.sigma

let test_ci_contains_truth () =
  let paths, samples = synth_samples 0.4 5 in
  let ci = information paths samples in
  Alcotest.(check bool) "interval contains truth" true (Tomo.Confidence.contains ci 0 0.4);
  Alcotest.(check bool) "interval is narrow" true
    (Tomo.Confidence.width ci.Tomo.Confidence.intervals.(0) < 0.1)

let test_ci_shrinks_with_samples () =
  let paths, small = synth_samples ~n:100 0.4 6 in
  let _, large = synth_samples ~n:4000 0.4 7 in
  let width samples =
    Tomo.Confidence.width (information paths samples).Tomo.Confidence.intervals.(0)
  in
  Alcotest.(check bool) "more data, tighter interval" true (width large < width small)

let test_ci_empty_samples () =
  let paths, _ = synth_samples 0.5 8 in
  Alcotest.(check bool) "empty rejected" true
    (match Tomo.Confidence.information paths ~samples:[||] ~point:[| 0.5 |] ~sigma:2.0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The diamond's paths cost 7 and 10 cycles, 30 σ̂ apart once σ̂ sits on
   its 0.1 floor, so every exact sample names its arm: no information is
   missing and the standard error is the binomial one. *)
let test_ci_binomial_se () =
  let paths, samples = synth_samples ~n:1000 0.3 15 in
  let ci = information paths samples in
  let theta = ci.Tomo.Confidence.intervals.(0).Tomo.Confidence.point in
  let binomial = sqrt (theta *. (1.0 -. theta) /. 1000.0) in
  let se = ci.Tomo.Confidence.se.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "se %.6f = binomial %.6f within 1%%" se binomial)
    true
    (abs_float (se -. binomial) <= 0.01 *. binomial)

(* --- Windowed --- *)

let test_windowed_stationary () =
  let paths, samples = synth_samples ~n:1000 0.3 9 in
  let w = Tomo.Windowed.estimate ~window_size:250 paths ~samples in
  Alcotest.(check int) "four windows" 4 (List.length w.Tomo.Windowed.windows);
  Alcotest.(check bool) "no drift" false (Tomo.Windowed.drifted w);
  let last = List.nth w.Tomo.Windowed.windows 3 in
  Alcotest.(check bool) "final theta close" true
    (abs_float (last.Tomo.Windowed.theta.(0) -. 0.3) < 0.07)

let test_windowed_detects_shift () =
  let m = diamond_model () in
  let paths = Tomo.Paths.enumerate m in
  let rng = Stats.Rng.create 10 in
  let early = Tomo.Paths.sample_costs rng paths ~theta:[| 0.9 |] ~n:600 in
  let late = Tomo.Paths.sample_costs rng paths ~theta:[| 0.1 |] ~n:600 in
  let w = Tomo.Windowed.estimate ~window_size:200 paths ~samples:(Array.append early late) in
  Alcotest.(check bool) "drift detected" true (Tomo.Windowed.drifted w);
  Alcotest.(check bool) "big drift" true (w.Tomo.Windowed.max_drift > 0.5)

let test_windowed_tail_folding () =
  let paths, samples = synth_samples ~n:420 0.5 11 in
  (* 420 = 2 full windows of 200 + tail 20 (< 50): folded into the last. *)
  let w = Tomo.Windowed.estimate ~window_size:200 paths ~samples in
  Alcotest.(check int) "two windows" 2 (List.length w.Tomo.Windowed.windows);
  let last = List.nth w.Tomo.Windowed.windows 1 in
  Alcotest.(check int) "second window start" 200 last.Tomo.Windowed.first_sample

(* Windows of 1–3 samples over a multiple of the window size leave no
   tail: no empty trailing window may be estimated. *)
let test_windowed_small_windows () =
  let paths, samples = synth_samples ~n:6 0.5 13 in
  List.iter
    (fun window_size ->
      let w = Tomo.Windowed.estimate ~window_size paths ~samples in
      let windows = w.Tomo.Windowed.windows in
      let expected = if window_size = 4 then 2 else 6 / window_size in
      Alcotest.(check int)
        (Printf.sprintf "window %d: windows" window_size)
        expected (List.length windows);
      List.iteri
        (fun i win ->
          Alcotest.(check int)
            (Printf.sprintf "window %d: start of %d" window_size i)
            (i * window_size) win.Tomo.Windowed.first_sample)
        windows)
    [ 1; 2; 3; 4; 6 ];
  (* Fewer samples than half a window is the windowed estimator's own
     error, however small the window: one sample for a window of 3, none
     for a window of 1. *)
  List.iter
    (fun (window_size, n) ->
      match Tomo.Windowed.estimate ~window_size paths ~samples:(Array.sub samples 0 n) with
      | _ -> Alcotest.failf "window %d: %d samples accepted" window_size n
      | exception Invalid_argument msg ->
          Alcotest.(check string)
            (Printf.sprintf "window %d: %d samples" window_size n)
            "Windowed.estimate: not enough samples for one window" msg)
    [ (3, 1); (1, 0) ]

let test_windowed_too_few () =
  let paths, samples = synth_samples ~n:10 0.5 12 in
  Alcotest.(check bool) "too few samples rejected" true
    (match Tomo.Windowed.estimate ~window_size:100 paths ~samples with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- Planning the profiling duration --- *)

let test_planner_scaling () =
  let paths, samples = synth_samples ~n:500 0.4 13 in
  let ci = information paths samples in
  Alcotest.(check bool) "needs more samples for tiny target" true
    (match Tomo.Confidence.samples_needed ci ~target_se:1e-4 with
    | Some n -> n > 500
    | None -> false);
  Alcotest.(check (option int)) "already met" (Some 500)
    (Tomo.Confidence.samples_needed ci ~target_se:0.5)

let test_planner_bad_target () =
  let paths, samples = synth_samples ~n:100 0.4 14 in
  let ci = information paths samples in
  List.iter
    (fun target_se ->
      Alcotest.(check bool)
        (Printf.sprintf "target %g rejected" target_se)
        true
        (match Tomo.Confidence.samples_needed ci ~target_se with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ 0.0; -0.1 ]

(* --- Fit --- *)

let test_fit_good_model () =
  let paths, samples = synth_samples ~n:2000 0.35 20 in
  let theta = (Tomo.Em.estimate paths ~samples).Tomo.Em.theta in
  let fit = Tomo.Fit.check paths ~theta ~samples in
  Alcotest.(check bool)
    (Format.asprintf "good fit accepted (%a)" Tomo.Fit.pp fit)
    true (Tomo.Fit.acceptable fit);
  Alcotest.(check (float 1e-9)) "nothing unexplained" 0.0 fit.Tomo.Fit.unexplained_mass

let test_fit_detects_outliers () =
  let paths, samples = synth_samples ~n:500 0.35 21 in
  (* Contaminate with samples no path can produce (an unmodelled code
     path adding ~40 cycles). *)
  let contaminated = Array.map (fun s -> s +. 40.0) (Array.sub samples 0 50) in
  let samples = Array.append samples contaminated in
  let theta = (Tomo.Em.estimate paths ~samples).Tomo.Em.theta in
  let fit = Tomo.Fit.check paths ~theta ~samples in
  Alcotest.(check bool)
    (Format.asprintf "outliers flagged (%a)" Tomo.Fit.pp fit)
    true
    (fit.Tomo.Fit.unexplained_mass > 0.05);
  Alcotest.(check bool) "fit rejected" false (Tomo.Fit.acceptable fit)

let test_fit_detects_wrong_theta () =
  let paths, samples = synth_samples ~n:2000 0.9 22 in
  let fit = Tomo.Fit.check paths ~theta:[| 0.1 |] ~samples in
  Alcotest.(check bool)
    (Format.asprintf "wrong theta rejected (%a)" Tomo.Fit.pp fit)
    false (Tomo.Fit.acceptable fit)

(* --- Generator: whole-stack properties --- *)

let generated_configs =
  List.map
    (fun seed -> { Workloads.Generator.default_config with Workloads.Generator.seed })
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_generated_programs_compile_and_run () =
  List.iter
    (fun config ->
      let program = Workloads.Generator.generate ~config () in
      let c = Compile.compile program in
      let devices = Devices.create () in
      let env = Env.create (Workloads.Generator.env_config ~seed:config.Workloads.Generator.seed) in
      Env.attach env devices;
      let m = Machine.create ~program:c.Compile.program ~devices () in
      ignore (Machine.run_proc m Compile.init_proc_name);
      for _ = 1 to 50 do
        ignore (Machine.run_proc m "gen_task")
      done;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d executed" config.Workloads.Generator.seed)
        true
        ((Machine.stats m).Machine.instructions > 0))
    generated_configs

let test_generated_rewrite_equivalence () =
  (* For random programs and random placements, the rewritten binary must
     produce identical outputs. *)
  let rng = Stats.Rng.create 2024 in
  List.iter
    (fun config ->
      let seed = config.Workloads.Generator.seed in
      let program = Workloads.Generator.generate ~config () in
      let c = Compile.compile program in
      let original = c.Compile.program in
      let run binary =
        let devices = Devices.create () in
        let env = Env.create (Workloads.Generator.env_config ~seed) in
        Env.attach env devices;
        let m = Machine.create ~program:binary ~devices () in
        ignore (Machine.run_proc m Compile.init_proc_name);
        for _ = 1 to 60 do
          ignore (Machine.run_proc m "gen_task")
        done;
        ( Devices.tx_log devices,
          Machine.read_mem m (Compile.var_address c ~proc:"gen_task" "out") )
      in
      let base = run original in
      let cfg = Cfg.of_proc_name original "gen_task" in
      let n = Cfg.num_blocks cfg in
      for _ = 1 to 3 do
        let rest = Array.init (n - 1) (fun i -> i + 1) in
        Stats.Rng.shuffle rng rest;
        let placement = Array.append [| 0 |] rest in
        let rewritten = Layout.Rewrite.program original ~placements:[ ("gen_task", placement) ] in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d equivalent under shuffle" seed)
          true
          (run rewritten = base)
      done)
    generated_configs

let test_generated_estimation_recovers_oracle () =
  (* End-to-end property: probes + EM recover the oracle's branch ratios on
     machine-generated programs.  Individual programs may contain
     equal-cost (timing-unidentifiable) arms, so per-program bounds are
     loose and the tight assertion is on the suite mean. *)
  let maes = ref [] in
  List.iter
    (fun config ->
      let seed = config.Workloads.Generator.seed in
      let program = Workloads.Generator.generate ~config () in
      let c = Compile.compile program in
      let instrumented = Asm.assemble (Profilekit.Probes.instrument c.Compile.items) in
      let devices = Devices.create () in
      let env = Env.create (Workloads.Generator.env_config ~seed:(seed + 100)) in
      Env.attach env devices;
      let m = Machine.create ~program:instrumented ~devices () in
      ignore (Machine.run_proc m Compile.init_proc_name);
      let oracle = Profilekit.Oracle.attach m in
      for _ = 1 to 1500 do
        ignore (Machine.run_proc m "gen_task")
      done;
      let samples =
        Profilekit.Probes.(samples_for (collect ~program:instrumented ~devices)) "gen_task"
      in
      let truth = Profilekit.Oracle.theta_vector oracle ~proc:"gen_task" in
      if Array.length truth > 0 then begin
        let model = Tomo.Model.of_cfg (Cfg.of_proc_name instrumented "gen_task") in
        match Tomo.Paths.enumerate ~max_paths:20_000 ~max_visits:10 model with
        | paths ->
            let r = Tomo.Em.estimate paths ~samples in
            let mae = Stats.Metrics.mae r.Tomo.Em.theta truth in
            maes := (seed, mae) :: !maes
        | exception Tomo.Paths.Too_complex _ -> ()
      end)
    generated_configs;
  (* Unidentifiable programs (all arms equal-cost) are counted but only the
     population statistics are asserted: most programs estimate well. *)
  let values = List.map snd !maes in
  let mean = List.fold_left ( +. ) 0.0 values /. float_of_int (max 1 (List.length values)) in
  let good = List.length (List.filter (fun m -> m < 0.1) values) in
  Alcotest.(check bool)
    (Printf.sprintf "suite mean mae %.3f < 0.2" mean)
    true (mean < 0.2);
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d programs under 0.1 MAE" good (List.length values))
    true
    (2 * good >= List.length values)

let test_generator_deterministic () =
  let a = Workloads.Generator.generate () in
  let b = Workloads.Generator.generate () in
  Alcotest.(check bool) "same program for same seed" true (a = b)

(* The estimations of [ctomo report -w ctp --jitter 8 --horizon 200000]
   and [ctomo report -w sense --jitter 8 --seed 42] (pinned in
   test/cli/report.t), replayed as report runs them. *)
let report_estimates (w : Workloads.t) ~horizon =
  let module P = Codetomo.Pipeline in
  let config = { P.default_config with P.seed = 42; timer_jitter = 8.0; horizon } in
  let run = P.profile ~config w in
  List.map
    (fun proc ->
      let e, samples, paths =
        P.estimate_proc ~opts:{ P.default_opts with P.max_paths = Some 20_000 } run proc
      in
      match paths with
      | None -> Alcotest.failf "%s: no path set" proc
      | Some paths ->
          let point = e.P.estimate.Tomo.Estimator.theta in
          let sigma = Option.get e.P.estimate.Tomo.Estimator.sigma in
          (proc, e.P.truth, Tomo.Confidence.information paths ~samples ~point ~sigma))
    w.Workloads.profiled

let test_ci_contains_point_at_jitter_8 () =
  List.iter
    (fun (w, horizon) ->
      List.iter
        (fun (proc, _, ci) ->
          Array.iteri
            (fun k (itv : Tomo.Confidence.interval) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s theta[%d] = %.3f in [%.3f, %.3f]" proc k
                   itv.Tomo.Confidence.point itv.Tomo.Confidence.lo itv.Tomo.Confidence.hi)
                true
                (Tomo.Confidence.contains ci k itv.Tomo.Confidence.point))
            ci.Tomo.Confidence.intervals)
        (report_estimates w ~horizon))
    [ (Workloads.ctp, Some 200_000); (Workloads.sense, None) ]

(* At jitter 8, seed 42, report_task's EM stops on its cap far from the
   oracle.  Intervals read from replicates warm-started there printed
   [0.055, 0.055] on an error of 0.83; the information says the point is
   no maximum, and no such interval is printed. *)
let test_ci_wide_on_wrong_estimate () =
  List.iter
    (fun (proc, truth, ci) ->
      Array.iteri
        (fun k (itv : Tomo.Confidence.interval) ->
          let p = itv.Tomo.Confidence.point in
          if abs_float (p -. truth.(k)) > 0.5 then
            Alcotest.(check bool)
              (Printf.sprintf "%s theta[%d] = %.3f (oracle %.3f): [%.3f, %.3f] has width" proc k
                 p truth.(k) itv.Tomo.Confidence.lo itv.Tomo.Confidence.hi)
              true
              (Printf.sprintf "%.3f" itv.Tomo.Confidence.lo
              <> Printf.sprintf "%.3f" itv.Tomo.Confidence.hi))
        ci.Tomo.Confidence.intervals)
    (report_estimates Workloads.sense ~horizon:None)

let suite =
  [
    Alcotest.test_case "ci contains truth" `Quick test_ci_contains_truth;
    Alcotest.test_case "ci shrinks" `Slow test_ci_shrinks_with_samples;
    Alcotest.test_case "ci empty" `Quick test_ci_empty_samples;
    Alcotest.test_case "ci binomial se" `Quick test_ci_binomial_se;
    Alcotest.test_case "ci contains its point at jitter 8" `Quick
      test_ci_contains_point_at_jitter_8;
    Alcotest.test_case "ci wide on a wrong estimate" `Quick test_ci_wide_on_wrong_estimate;
    Alcotest.test_case "windowed stationary" `Quick test_windowed_stationary;
    Alcotest.test_case "windowed detects shift" `Quick test_windowed_detects_shift;
    Alcotest.test_case "windowed tail folding" `Quick test_windowed_tail_folding;
    Alcotest.test_case "windowed too few" `Quick test_windowed_too_few;
    Alcotest.test_case "windowed small windows" `Quick test_windowed_small_windows;
    Alcotest.test_case "planner scaling" `Slow test_planner_scaling;
    Alcotest.test_case "planner bad target" `Quick test_planner_bad_target;
    Alcotest.test_case "fit good model" `Quick test_fit_good_model;
    Alcotest.test_case "fit detects outliers" `Quick test_fit_detects_outliers;
    Alcotest.test_case "fit detects wrong theta" `Quick test_fit_detects_wrong_theta;
    Alcotest.test_case "generated compile+run" `Quick test_generated_programs_compile_and_run;
    Alcotest.test_case "generated rewrite equivalence" `Slow test_generated_rewrite_equivalence;
    Alcotest.test_case "generated estimation" `Slow test_generated_estimation_recovers_oracle;
    Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
  ]

(* --- Online (streaming) estimation --- *)

let test_online_converges () =
  let paths, samples = synth_samples ~n:3000 0.3 30 in
  let online = Tomo.Online.create ~sigma:0.3 paths in
  Tomo.Online.observe_all online samples;
  Alcotest.(check int) "counted" 3000 (Tomo.Online.observations online);
  Alcotest.(check bool) "close to truth" true
    (abs_float ((Tomo.Online.theta online).(0) -. 0.3) < 0.05)

let test_online_no_evidence_is_half () =
  let paths, _ = synth_samples ~n:10 0.3 31 in
  let online = Tomo.Online.create paths in
  Alcotest.(check (array (float 1e-9))) "prior" [| 0.5 |] (Tomo.Online.theta online)

let test_online_tracks_drift () =
  let m = diamond_model () in
  let paths = Tomo.Paths.enumerate m in
  let rng = Stats.Rng.create 32 in
  let early = Tomo.Paths.sample_costs rng paths ~theta:[| 0.9 |] ~n:2000 in
  let late = Tomo.Paths.sample_costs rng paths ~theta:[| 0.1 |] ~n:2000 in
  let online = Tomo.Online.create ~decay:0.995 ~sigma:0.3 paths in
  Tomo.Online.observe_all online early;
  let after_early = (Tomo.Online.theta online).(0) in
  Tomo.Online.observe_all online late;
  let after_late = (Tomo.Online.theta online).(0) in
  Alcotest.(check bool)
    (Printf.sprintf "tracked 0.9 (%f)" after_early)
    true
    (abs_float (after_early -. 0.9) < 0.05);
  Alcotest.(check bool)
    (Printf.sprintf "tracked drift to 0.1 (%f)" after_late)
    true
    (abs_float (after_late -. 0.1) < 0.05)

let test_online_matches_batch_without_decay () =
  let paths, samples = synth_samples ~n:1500 0.6 33 in
  let online = Tomo.Online.create ~decay:1.0 ~sigma:0.3 paths in
  Tomo.Online.observe_all online samples;
  let batch = Tomo.Em.estimate ~sigma:0.3 ~estimate_sigma:false paths ~samples in
  Alcotest.(check bool) "agrees with batch EM" true
    (abs_float ((Tomo.Online.theta online).(0) -. batch.Tomo.Em.theta.(0)) < 0.02)

let test_online_validation () =
  let paths, _ = synth_samples ~n:10 0.3 34 in
  let rejected f = match f () with _ -> false | exception Invalid_argument _ -> true in
  List.iter
    (fun decay ->
      Alcotest.(check bool) (Printf.sprintf "decay %g" decay) true
        (rejected (fun () -> Tomo.Online.create ~decay paths)))
    [ 0.0; 1.5; Float.nan ];
  List.iter
    (fun sigma ->
      Alcotest.(check bool) (Printf.sprintf "sigma %g" sigma) true
        (rejected (fun () -> Tomo.Online.create ~sigma paths)))
    [ 0.0; Float.nan; Float.infinity ]

let suite =
  suite
  @ [
      Alcotest.test_case "online converges" `Quick test_online_converges;
      Alcotest.test_case "online prior" `Quick test_online_no_evidence_is_half;
      Alcotest.test_case "online tracks drift" `Quick test_online_tracks_drift;
      Alcotest.test_case "online matches batch" `Quick test_online_matches_batch_without_decay;
      Alcotest.test_case "online validation" `Quick test_online_validation;
    ]

(* --- Identifiability analysis and cost watermarking --- *)

(* A diamond whose arms cost the same: timing carries no information. *)
let ambiguous_model () =
  let p =
    Asm.assemble
      [
        Asm.Proc "f"; Asm.cmpi 0 0; Asm.br Isa.Eq "a2"; Asm.movi 1 1; Asm.jmp "j";
        Asm.Label "a2"; Asm.movi 1 2; Asm.movi 1 3; Asm.Label "j"; Asm.ret;
      ]
  in
  (* Arm1: movi+jmp = 2 + jump penalty 2 = 4 on that path; arm2: 2 movi = 2
     + taken penalty 2 = 4: both outcomes cost the same. *)
  Tomo.Model.of_cfg ~call_residual:0 ~window_correction:0 (Cfg.of_proc_name p "f")

let test_identify_flags_equal_arms () =
  let paths = Tomo.Paths.enumerate (ambiguous_model ()) in
  let id = Tomo.Identify.analyze paths in
  Alcotest.(check bool) "flagged" true (Tomo.Identify.any id);
  Alcotest.(check (array bool)) "parameter 0" [| true |] id.Tomo.Identify.ambiguous

let test_identify_clears_distinct_arms () =
  let paths = Tomo.Paths.enumerate (diamond_model ()) in
  let id = Tomo.Identify.analyze paths in
  Alcotest.(check bool) "not flagged" false (Tomo.Identify.any id);
  Alcotest.(check int) "no collisions" 0 id.Tomo.Identify.collisions

let test_watermark_separates () =
  let items =
    [
      Asm.Proc "f"; Asm.cmpi 0 0; Asm.br Isa.Eq "a2"; Asm.movi 1 1; Asm.jmp "j";
      Asm.Label "a2"; Asm.movi 1 2; Asm.movi 1 3; Asm.Label "j"; Asm.ret;
    ]
  in
  let wm = Asm.assemble (Profilekit.Watermark.instrument ~sites:[ ("f", 0) ] items) in
  let model = Tomo.Model.of_cfg ~call_residual:0 ~window_correction:0 (Cfg.of_proc_name wm "f") in
  let id = Tomo.Identify.analyze (Tomo.Paths.enumerate model) in
  Alcotest.(check bool) "no longer ambiguous" false (Tomo.Identify.any id)

let test_watermark_preserves_semantics () =
  let c = Compile.compile Workloads.sense.Workloads.program in
  let sites = [ ("report_task", 3); ("report_task", 5) ] in
  let wm = Asm.assemble (Profilekit.Watermark.instrument ~sites c.Compile.items) in
  let run binary =
    let devices = Devices.create () in
    let seq = ref 0 in
    Devices.set_sensor devices (fun _ -> incr seq; !seq * 97 mod 1024);
    let m = Machine.create ~program:binary ~devices () in
    ignore (Machine.run_proc m Compile.init_proc_name);
    for _ = 1 to 60 do
      ignore (Machine.run_proc m "sense_task");
      ignore (Machine.run_proc m "report_task")
    done;
    Devices.tx_log devices
  in
  Alcotest.(check bool) "same outputs" true (run c.Compile.program = run wm)

let test_watermark_distinct_delays () =
  (* Two watermarked branches in one procedure must receive different
     delays or mutual collisions survive. *)
  let items =
    [
      Asm.Proc "f";
      Asm.cmpi 0 0; Asm.br Isa.Eq "s1"; Asm.Label "s1";
      Asm.cmpi 0 1; Asm.br Isa.Eq "s2"; Asm.Label "s2";
      Asm.ret;
    ]
  in
  let wm = Asm.assemble (Profilekit.Watermark.instrument ~sites:[ ("f", 0); ("f", 1) ] items) in
  let model = Tomo.Model.of_cfg ~call_residual:0 ~window_correction:0 (Cfg.of_proc_name wm "f") in
  let paths = Tomo.Paths.enumerate model in
  let costs =
    Array.to_list (Array.map (fun p -> p.Tomo.Paths.cost) (Tomo.Paths.paths paths))
  in
  Alcotest.(check int) "all four outcomes distinct" 4
    (List.length (List.sort_uniq compare costs))

let test_pipeline_watermarked_estimation () =
  let run =
    Codetomo.Pipeline.profile
      ~config:{ Codetomo.Pipeline.default_config with horizon = Some 2_000_000 }
      Workloads.sense
  in
  let sites = Codetomo.Pipeline.ambiguous_sites run in
  Alcotest.(check bool) "sense has ambiguous branches" true (sites <> []);
  let plain = Codetomo.Pipeline.estimate run in
  let wm, used = Codetomo.Pipeline.estimate_watermarked run in
  Alcotest.(check bool) "watermarks applied" true (used <> []);
  let mae_of proc ests =
    (List.find (fun e -> e.Codetomo.Pipeline.proc = proc) ests).Codetomo.Pipeline.mae
  in
  Alcotest.(check bool)
    (Printf.sprintf "report_task improves (%.4f -> %.4f)"
       (mae_of "report_task" plain) (mae_of "report_task" wm))
    true
    (mae_of "report_task" wm < 0.03 && mae_of "report_task" plain > 0.08)

let suite =
  suite
  @ [
      Alcotest.test_case "identify equal arms" `Quick test_identify_flags_equal_arms;
      Alcotest.test_case "identify distinct arms" `Quick test_identify_clears_distinct_arms;
      Alcotest.test_case "watermark separates" `Quick test_watermark_separates;
      Alcotest.test_case "watermark preserves semantics" `Quick
        test_watermark_preserves_semantics;
      Alcotest.test_case "watermark distinct delays" `Quick test_watermark_distinct_delays;
      Alcotest.test_case "pipeline watermarked estimation" `Slow
        test_pipeline_watermarked_estimation;
    ]
