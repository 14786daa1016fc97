(* Tomo: Model, Paths, Em, Moments, Estimator — on a hand-built diamond
   CFG and a loop CFG where everything is analytically checkable. *)

module Isa = Mote_isa.Isa
module Asm = Mote_isa.Asm
module Cfg = Cfgir.Cfg
module Model = Tomo.Model
module Paths = Tomo.Paths

let feq ?(tol = 1e-9) name a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %f vs %f" name a b) true (abs_float (a -. b) < tol)

(* Diamond with distinct arm costs.  Bare model (no probe corrections). *)
let diamond_model () =
  let p =
    Asm.assemble
      [
        Asm.Proc "f";
        Asm.cmpi 0 0;
        Asm.br Isa.Eq "arm2";
        (* fall arm: 3 movi = 3 cycles *)
        Asm.movi 1 1; Asm.movi 1 2; Asm.movi 1 3;
        Asm.jmp "join";
        Asm.Label "arm2";
        (* taken arm: 1 movi *)
        Asm.movi 1 9;
        Asm.Label "join";
        Asm.ret;
      ]
  in
  Model.of_cfg ~call_residual:0 ~window_correction:0 (Cfg.of_proc_name p "f")

(* Self-loop: body repeats while the branch is taken. *)
let loop_model () =
  let p =
    Asm.assemble
      [
        Asm.Proc "g";
        Asm.Label "head";
        Asm.movi 0 1;
        Asm.cmpi 0 0;
        Asm.br Isa.Eq "head";
        Asm.ret;
      ]
  in
  Model.of_cfg ~call_residual:0 ~window_correction:0 (Cfg.of_proc_name p "g")

let test_model_shape () =
  let m = diamond_model () in
  Alcotest.(check int) "one parameter" 1 (Model.num_params m);
  Alcotest.(check (array int)) "param block" [| 0 |] (Model.param_blocks m);
  Alcotest.(check (option int)) "param_of_block" (Some 0) (Model.param_of_block m 0);
  Alcotest.(check (option int)) "non-branch" None (Model.param_of_block m 1)

let test_check_theta () =
  let m = diamond_model () in
  Alcotest.(check bool) "wrong arity" true
    (match Model.check_theta m [| 0.1; 0.2 |] with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "out of range" true
    (match Model.check_theta m [| 1.5 |] with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_chain_rows () =
  let m = diamond_model () in
  let c = Model.chain m ~theta:[| 0.3 |] in
  feq "taken prob" 0.3 (Markov.Chain.prob c 0 2);
  feq "fall prob" 0.7 (Markov.Chain.prob c 0 1);
  feq "exit leaks" 1.0 (Markov.Chain.leak c 3)

let test_mean_time_analytic () =
  let m = diamond_model () in
  (* Blocks: B0 = cmpi+br = 2; B1 = 3 movi + jmp = 4; B2 = movi = 1; B3 = ret = 2.
     Taken path: 2 + pen2 + 1 + 2 = 7.  Fall path: 2 + 4 + pen2(jmp) + 2 = 10. *)
  feq "theta=1" 7.0 (Model.mean_time m ~theta:[| 1.0 |]);
  feq "theta=0" 10.0 (Model.mean_time m ~theta:[| 0.0 |]);
  feq "theta=0.5" 8.5 (Model.mean_time m ~theta:[| 0.5 |])

let test_variance_analytic () =
  let m = diamond_model () in
  (* Two-point distribution {7, 10} w.p. {t, 1-t}: var = t(1-t) * 9. *)
  feq ~tol:1e-6 "variance" (0.25 *. 9.0) (Model.variance_time m ~theta:[| 0.5 |]);
  feq ~tol:1e-6 "degenerate" 0.0 (Model.variance_time m ~theta:[| 1.0 |])

let test_expected_visits_loop () =
  let m = loop_model () in
  (* Loop body visited 1/(1-q) times for back-probability q. *)
  let v = Model.expected_visits m ~theta:[| 0.75 |] in
  feq ~tol:1e-9 "geometric visits" 4.0 v.(0)

let test_freq_of_theta () =
  let m = diamond_model () in
  let freq = Model.freq_of_theta m ~theta:[| 0.25 |] ~invocations:100.0 in
  feq "taken weight" 25.0 (Cfgir.Freq.get freq ~src:0 ~dst:2 ~kind:Cfg.K_taken);
  feq "fall weight" 75.0 (Cfgir.Freq.get freq ~src:0 ~dst:1 ~kind:Cfg.K_fall);
  feq "jump weight" 75.0 (Cfgir.Freq.get freq ~src:1 ~dst:3 ~kind:Cfg.K_jump);
  let visits = Cfgir.Freq.block_visits freq in
  feq "join visits" 100.0 visits.(3)

(* --- paths --- *)

let test_paths_diamond () =
  let m = diamond_model () in
  let p = Paths.enumerate m in
  Alcotest.(check int) "two paths" 2 (Array.length (Paths.paths p));
  Alcotest.(check bool) "not truncated" false (Paths.truncated p);
  feq "mass is 1" 1.0 (Paths.prior_mass p ~theta:[| 0.3 |]);
  feq "min cost" 7.0 (Paths.min_cost p);
  feq "max cost" 10.0 (Paths.max_cost p)

let test_paths_loop_truncation () =
  let m = loop_model () in
  let p = Paths.enumerate ~max_visits:5 m in
  Alcotest.(check int) "5 unrollings" 5 (Array.length (Paths.paths p));
  Alcotest.(check bool) "truncated" true (Paths.truncated p);
  (* Mass = 1 - q^5 for back-probability q. *)
  feq ~tol:1e-9 "tail mass missing" (1.0 -. (0.5 ** 5.0)) (Paths.prior_mass p ~theta:[| 0.5 |])

let test_paths_too_complex () =
  let m = loop_model () in
  Alcotest.(check bool) "raises when nothing fits" true
    (match Paths.enumerate ~max_paths:0 m with
    | _ -> false
    | exception Paths.Too_complex _ -> true)

let test_log_prior () =
  let m = diamond_model () in
  let p = Paths.enumerate m in
  let lp = Paths.log_prior p ~theta:[| 0.3 |] in
  let probs = Array.map exp lp |> Array.to_list |> List.sort compare in
  match probs with
  | [ a; b ] ->
      feq ~tol:1e-9 "smaller" 0.3 a;
      feq ~tol:1e-9 "larger" 0.7 b
  | _ -> Alcotest.fail "two paths"

let test_sample_costs () =
  let m = diamond_model () in
  let p = Paths.enumerate m in
  let rng = Stats.Rng.create 4 in
  let costs = Paths.sample_costs rng p ~theta:[| 0.25 |] ~n:10_000 in
  let taken = Array.fold_left (fun acc c -> if c = 7.0 then acc + 1 else acc) 0 costs in
  Alcotest.(check bool) "ratio near theta" true
    (abs_float ((float_of_int taken /. 10_000.0) -. 0.25) < 0.02)

(* --- EM --- *)

let synth_samples ?(noise = 0.0) ?(n = 3000) model theta seed =
  let p = Paths.enumerate model in
  let rng = Stats.Rng.create seed in
  let costs = Paths.sample_costs rng p ~theta ~n in
  if noise = 0.0 then costs
  else Array.map (fun c -> c +. Stats.Dist.gaussian rng ~mu:0.0 ~sigma:noise) costs

let test_em_recovers_diamond () =
  let m = diamond_model () in
  let p = Paths.enumerate m in
  let samples = synth_samples m [| 0.3 |] 11 in
  let r = Tomo.Em.estimate p ~samples in
  Alcotest.(check bool) "converged" true r.Tomo.Em.converged;
  feq ~tol:0.02 "theta recovered" 0.3 r.Tomo.Em.theta.(0)

let test_em_recovers_loop () =
  let m = loop_model () in
  let p = Paths.enumerate ~max_visits:20 m in
  let samples = synth_samples m [| 0.6 |] 12 in
  let r = Tomo.Em.estimate p ~samples in
  feq ~tol:0.03 "loop probability" 0.6 r.Tomo.Em.theta.(0)

let test_em_with_noise () =
  let m = diamond_model () in
  let p = Paths.enumerate m in
  let samples = synth_samples ~noise:1.0 m [| 0.7 |] 13 in
  let r = Tomo.Em.estimate ~sigma:1.0 p ~samples in
  feq ~tol:0.05 "theta under noise" 0.7 r.Tomo.Em.theta.(0);
  Alcotest.(check bool) "sigma sensible" true (r.Tomo.Em.sigma > 0.5 && r.Tomo.Em.sigma < 2.0)

let test_em_loglik_nondecreasing () =
  let m = diamond_model () in
  let p = Paths.enumerate m in
  let samples = synth_samples ~noise:0.5 m [| 0.4 |] 14 in
  let r = Tomo.Em.estimate ~sigma:0.8 ~estimate_sigma:false p ~samples in
  let lls = List.map snd r.Tomo.Em.trajectory in
  let rec monotone = function
    | a :: (b :: _ as rest) -> b >= a -. 1e-6 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "EM monotonicity" true (monotone lls)

let test_em_empty_samples () =
  let m = diamond_model () in
  let p = Paths.enumerate m in
  Alcotest.(check bool) "empty rejected" true
    (match Tomo.Em.estimate p ~samples:[||] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_em_init_respected () =
  let m = diamond_model () in
  let p = Paths.enumerate m in
  let samples = synth_samples m [| 0.5 |] 15 in
  let r = Tomo.Em.estimate ~max_iters:0 ~init:[| 0.123 |] p ~samples in
  feq "zero iterations keep init" 0.123 r.Tomo.Em.theta.(0)

(* --- robust (contamination) EM --- *)

let test_em_robustness_opt_in () =
  let m = diamond_model () in
  let p = Paths.enumerate m in
  let samples = synth_samples ~noise:0.5 m [| 0.4 |] 19 in
  let r = Tomo.Em.estimate p ~samples in
  Alcotest.(check bool) "no outlier: eps absent" true (r.Tomo.Em.outlier_eps = None);
  let fixed = { Tomo.Em.eps = 0.1; estimate_eps = false; max_eps = 0.5 } in
  let r = Tomo.Em.estimate ~outlier:fixed p ~samples in
  (match r.Tomo.Em.outlier_eps with
  | Some eps -> feq "fixed eps stays fixed" 0.1 eps
  | None -> Alcotest.fail "eps expected")

let test_em_robust_under_contamination () =
  let m = diamond_model () in
  let p = Paths.enumerate m in
  (* 10% garbage far above any feasible path cost — the shape the lossy
     transport produces (stale-entry windows, corrupted timestamps). *)
  let clean = synth_samples ~noise:0.5 ~n:3000 m [| 0.3 |] 20 in
  let garbage = Array.init 300 (fun i -> 500.0 +. float_of_int (i mod 7)) in
  let samples = Array.append clean garbage in
  let plain = Tomo.Em.estimate ~sigma:0.5 p ~samples in
  let robust = Tomo.Em.estimate ~sigma:0.5 ~outlier:Tomo.Em.default_outlier p ~samples in
  let err r = abs_float (r.Tomo.Em.theta.(0) -. 0.3) in
  feq ~tol:0.03 "robust theta survives the garbage" 0.3 robust.Tomo.Em.theta.(0);
  Alcotest.(check bool) "and beats the plain EM" true (err robust < err plain);
  Alcotest.(check bool) "plain sigma is dragged up" true
    (robust.Tomo.Em.sigma < plain.Tomo.Em.sigma);
  match robust.Tomo.Em.outlier_eps with
  | Some eps ->
      feq ~tol:0.05 "eps finds the contamination fraction" (300.0 /. 3300.0) eps
  | None -> Alcotest.fail "eps expected"

let test_em_robust_clean_data () =
  (* On clean data the robust variant must not invent outliers: eps
     clamps near its floor and theta matches the exact kernel closely. *)
  let m = diamond_model () in
  let p = Paths.enumerate m in
  let samples = synth_samples ~noise:0.5 ~n:3000 m [| 0.3 |] 21 in
  let exact = Tomo.Em.estimate ~sigma:0.5 p ~samples in
  let robust = Tomo.Em.estimate ~sigma:0.5 ~outlier:Tomo.Em.default_outlier p ~samples in
  feq ~tol:0.01 "theta unchanged" exact.Tomo.Em.theta.(0) robust.Tomo.Em.theta.(0);
  match robust.Tomo.Em.outlier_eps with
  | Some eps -> Alcotest.(check bool) "eps near zero" true (eps < 0.02)
  | None -> Alcotest.fail "eps expected"

let test_default_sigma () =
  feq "resolution 1 is exact (floored)" 0.1 (Tomo.Em.default_sigma ~resolution:1 ~jitter:0.0);
  feq "resolution 8 jitter 3" (sqrt ((63.0 /. 6.0) +. 18.0))
    (Tomo.Em.default_sigma ~resolution:8 ~jitter:3.0);
  Alcotest.(check bool) "monotone in resolution" true
    (Tomo.Em.default_sigma ~resolution:16 ~jitter:0.0
    > Tomo.Em.default_sigma ~resolution:4 ~jitter:0.0)

(* --- moments --- *)

let test_moments_recovers_diamond () =
  let m = diamond_model () in
  let samples = synth_samples m [| 0.35 |] 16 in
  let r = Tomo.Moments.estimate m ~samples in
  feq ~tol:0.05 "theta" 0.35 r.Tomo.Moments.theta.(0)

let test_moments_loop () =
  let m = loop_model () in
  let samples = synth_samples m [| 0.5 |] 17 in
  let r = Tomo.Moments.estimate m ~samples in
  feq ~tol:0.08 "loop theta" 0.5 r.Tomo.Moments.theta.(0)

let test_moments_empty () =
  let m = diamond_model () in
  Alcotest.(check bool) "empty rejected" true
    (match Tomo.Moments.estimate m ~samples:[||] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- estimator facade --- *)

let test_estimator_naive () =
  let m = diamond_model () in
  let r = Tomo.Estimator.run ~method_:Tomo.Estimator.Naive m ~samples:[| 1.0 |] in
  Alcotest.(check (array (float 1e-9))) "uniform" [| 0.5 |] r.Tomo.Estimator.theta

let test_estimator_em () =
  let m = diamond_model () in
  let samples = synth_samples m [| 0.2 |] 18 in
  let r = Tomo.Estimator.run ~method_:Tomo.Estimator.Em m ~samples in
  feq ~tol:0.03 "em theta" 0.2 r.Tomo.Estimator.theta.(0);
  Alcotest.(check bool) "loglik present" true (r.Tomo.Estimator.log_likelihood <> None);
  Alcotest.(check (list (pair int (float 0.05)))) "by block" [ (0, 0.2) ]
    r.Tomo.Estimator.thetas_by_block

let test_estimator_mae () =
  let m = diamond_model () in
  let r = Tomo.Estimator.run ~method_:Tomo.Estimator.Naive m ~samples:[| 1.0 |] in
  feq "mae" 0.2 (Stats.Metrics.mae r.Tomo.Estimator.theta [| 0.7 |])

let test_method_names () =
  Alcotest.(check (list string)) "names" [ "em"; "moments"; "naive" ]
    (List.map Tomo.Estimator.method_name Tomo.Estimator.[ Em; Moments; Naive ])

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"EM recovers random diamond theta" ~count:8
         QCheck.(pair (int_range 1 1000) (float_range 0.1 0.9))
         (fun (seed, theta) ->
           let m = diamond_model () in
           let p = Paths.enumerate m in
           let rng = Stats.Rng.create seed in
           let samples = Paths.sample_costs rng p ~theta:[| theta |] ~n:2000 in
           let r = Tomo.Em.estimate p ~samples in
           abs_float (r.Tomo.Em.theta.(0) -. theta) < 0.05));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"mean_time is monotone in cheap-path probability" ~count:50
         QCheck.(pair (float_range 0.0 1.0) (float_range 0.0 1.0))
         (fun (a, b) ->
           let m = diamond_model () in
           let lo = Stdlib.min a b and hi = Stdlib.max a b in
           (* Higher taken-probability means more weight on the cheap (7)
              path, so the mean must not increase. *)
           Model.mean_time m ~theta:[| hi |] <= Model.mean_time m ~theta:[| lo |] +. 1e-9));
  ]

let suite =
  [
    Alcotest.test_case "model shape" `Quick test_model_shape;
    Alcotest.test_case "check theta" `Quick test_check_theta;
    Alcotest.test_case "chain rows" `Quick test_chain_rows;
    Alcotest.test_case "mean time analytic" `Quick test_mean_time_analytic;
    Alcotest.test_case "variance analytic" `Quick test_variance_analytic;
    Alcotest.test_case "visits loop" `Quick test_expected_visits_loop;
    Alcotest.test_case "freq of theta" `Quick test_freq_of_theta;
    Alcotest.test_case "paths diamond" `Quick test_paths_diamond;
    Alcotest.test_case "paths loop truncation" `Quick test_paths_loop_truncation;
    Alcotest.test_case "paths too complex" `Quick test_paths_too_complex;
    Alcotest.test_case "log prior" `Quick test_log_prior;
    Alcotest.test_case "sample costs" `Quick test_sample_costs;
    Alcotest.test_case "em diamond" `Quick test_em_recovers_diamond;
    Alcotest.test_case "em loop" `Quick test_em_recovers_loop;
    Alcotest.test_case "em noise" `Quick test_em_with_noise;
    Alcotest.test_case "em loglik monotone" `Quick test_em_loglik_nondecreasing;
    Alcotest.test_case "em empty" `Quick test_em_empty_samples;
    Alcotest.test_case "em init" `Quick test_em_init_respected;
    Alcotest.test_case "em robustness opt-in" `Quick test_em_robustness_opt_in;
    Alcotest.test_case "em robust vs contamination" `Quick test_em_robust_under_contamination;
    Alcotest.test_case "em robust on clean data" `Quick test_em_robust_clean_data;
    Alcotest.test_case "default sigma" `Quick test_default_sigma;
    Alcotest.test_case "moments diamond" `Quick test_moments_recovers_diamond;
    Alcotest.test_case "moments loop" `Quick test_moments_loop;
    Alcotest.test_case "moments empty" `Quick test_moments_empty;
    Alcotest.test_case "estimator naive" `Quick test_estimator_naive;
    Alcotest.test_case "estimator em" `Quick test_estimator_em;
    Alcotest.test_case "estimator mae" `Quick test_estimator_mae;
    Alcotest.test_case "method names" `Quick test_method_names;
  ]
  @ qcheck_tests
