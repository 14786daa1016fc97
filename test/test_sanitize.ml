(* Tomo.Sanitize (quarantine) and Tomo.Health (verdicts): the two halves
   of the graceful-degradation contract.  All inputs are hand-built, all
   expectations exact. *)

module Sanitize = Tomo.Sanitize
module Health = Tomo.Health

let farr = Alcotest.(array (float 1e-9))

let test_empty () =
  let kept, r = Sanitize.run ~sigma:1.0 [||] in
  Alcotest.(check farr) "empty in, empty out" [||] kept;
  Alcotest.(check int) "total" 0 r.Sanitize.total;
  Alcotest.(check int) "kept" 0 r.Sanitize.kept

let test_single_and_duplicates () =
  (* A single sample and a duplicates-only set survive: the MAD floor
     keeps zero-spread data, and mad_min_n skips tiny sets anyway. *)
  let kept, r = Sanitize.run ~sigma:1.0 [| 42.0 |] in
  Alcotest.(check farr) "single kept" [| 42.0 |] kept;
  Alcotest.(check int) "nothing dropped" 0 (r.Sanitize.envelope_dropped + r.Sanitize.mad_dropped);
  let dup = Array.make 10 17.0 in
  let kept, _ = Sanitize.run ~sigma:1.0 dup in
  Alcotest.(check farr) "duplicates kept" dup kept

let test_envelope () =
  (* slack = 6 * max(sigma, 1) = 6, so the window is [4, 26]. *)
  let samples = [| 3.9; 4.0; 10.0; 26.0; 26.1; -1e9; 1e9 |] in
  let kept, r = Sanitize.run ~min_cost:10.0 ~max_cost:20.0 ~sigma:1.0 samples in
  Alcotest.(check farr) "boundary inclusive, order preserved"
    [| 4.0; 10.0; 26.0 |] kept;
  Alcotest.(check int) "envelope dropped" 4 r.Sanitize.envelope_dropped;
  Alcotest.(check int) "MAD stood down" 0 r.Sanitize.mad_dropped

let test_mad_fallback_only () =
  (* Without an envelope the MAD stage is the only defense and must
     drop the wild point; with one, it stands down and the same point
     is the envelope's (or the robust estimator's) problem. *)
  let samples = Array.append (Array.init 20 (fun i -> 100.0 +. float_of_int (i mod 3))) [| 1e7 |] in
  let kept, r = Sanitize.run ~sigma:1.0 samples in
  Alcotest.(check int) "outlier quarantined" 20 (Array.length kept);
  Alcotest.(check int) "by the MAD stage" 1 r.Sanitize.mad_dropped;
  Alcotest.(check bool) "and it is the wild one" true
    (Array.for_all (fun x -> x < 1e6) kept);
  let kept, r = Sanitize.run ~min_cost:90.0 ~max_cost:2e7 ~sigma:1.0 samples in
  Alcotest.(check int) "envelope given: MAD stands down" 0 r.Sanitize.mad_dropped;
  Alcotest.(check int) "in-envelope garbage kept for the robust EM" 21
    (Array.length kept)

let test_all_quarantined () =
  let samples = [| 1e9; -1e9 |] in
  let kept, r = Sanitize.run ~min_cost:10.0 ~max_cost:20.0 ~sigma:1.0 samples in
  Alcotest.(check farr) "nothing survives" [||] kept;
  Alcotest.(check int) "report says so" 2 r.Sanitize.envelope_dropped;
  (* The downstream contract: zero survivors is a typed verdict, not an
     exception. *)
  let h = Health.judge ~converged:true ~sample_count:(Array.length kept) () in
  Alcotest.(check bool) "zero samples ⇒ Rejected" true (Health.is_rejected h)

let test_report_adds_up () =
  let samples = Array.init 200 (fun i -> if i mod 17 = 0 then 1e8 else 50.0 +. float_of_int (i mod 5)) in
  List.iter
    (fun (min_cost, max_cost) ->
      let kept, r = Sanitize.run ~min_cost ~max_cost ~sigma:2.0 samples in
      Alcotest.(check int) "kept = |output|" (Array.length kept) r.Sanitize.kept;
      Alcotest.(check int) "total = kept + dropped" r.Sanitize.total
        (r.Sanitize.kept + r.Sanitize.envelope_dropped + r.Sanitize.mad_dropped))
    [ (Float.neg_infinity, Float.infinity); (40.0, 60.0) ]

let test_median_mad () =
  Alcotest.(check (float 1e-9)) "median odd" 3.0 (Sanitize.median [| 5.0; 1.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "median even interpolates" 2.5
    (Sanitize.median [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "median empty" 0.0 (Sanitize.median [||]);
  Alcotest.(check (float 1e-9)) "mad" 1.0 (Sanitize.mad [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  Alcotest.(check (float 1e-9)) "mad of duplicates" 0.0 (Sanitize.mad (Array.make 5 7.0))

let test_health_judge () =
  Alcotest.(check bool) "healthy" true
    (Health.is_healthy (Health.judge ~converged:true ~sample_count:100 ()));
  Alcotest.(check bool) "zero samples rejected" true
    (Health.is_rejected (Health.judge ~converged:true ~sample_count:0 ()));
  Alcotest.(check bool) "thin samples rejected" true
    (Health.is_rejected
       (Health.judge ~converged:true ~sample_count:(Health.default_min_samples - 1) ()));
  Alcotest.(check bool) "at the floor: not rejected" false
    (Health.is_rejected
       (Health.judge ~converged:true ~sample_count:Health.default_min_samples ()));
  (match Health.judge ~converged:false ~sample_count:100 () with
  | Health.Degraded _ -> ()
  | h -> Alcotest.failf "non-convergence should degrade, got %s" (Health.to_string h));
  (* The sample floor outranks convergence. *)
  Alcotest.(check bool) "floor first" true
    (Health.is_rejected (Health.judge ~converged:false ~sample_count:0 ()))

let test_health_ci_width () =
  let open Health in
  Alcotest.(check bool) "narrow CI: untouched" true
    (is_healthy (apply_ci_width ~width:0.1 Healthy));
  (match apply_ci_width ~width:0.7 Healthy with
  | Degraded _ -> ()
  | h -> Alcotest.failf "wide CI should degrade, got %s" (to_string h));
  Alcotest.(check bool) "huge CI rejects" true
    (is_rejected (apply_ci_width ~width:0.96 Healthy));
  (* Never promotes: a Rejected verdict stays Rejected under any width. *)
  Alcotest.(check bool) "no promotion" true
    (is_rejected (apply_ci_width ~width:0.0 (Rejected "x")));
  (match apply_ci_width ~width:0.0 (Degraded "x") with
  | Degraded _ -> ()
  | h -> Alcotest.failf "degraded must not promote, got %s" (to_string h))

let test_health_noise () =
  let open Health in
  (match apply_noise ~sigma:1175.0 ~noise:11.3 Healthy with
  | Degraded _ -> ()
  | h -> Alcotest.failf "a 1175-cycle sigma on an 11.3-cycle timer read %s" (to_string h));
  Alcotest.(check bool) "at the floor: untouched" true
    (is_healthy (apply_noise ~sigma:0.1 ~noise:0.1 Healthy));
  Alcotest.(check bool) "within 4x: untouched" true
    (is_healthy (apply_noise ~sigma:45.0 ~noise:11.3 Healthy));
  Alcotest.(check bool) "no promotion" true
    (is_rejected (apply_noise ~sigma:0.1 ~noise:11.3 (Rejected "x")));
  match apply_noise ~sigma:1175.0 ~noise:11.3 (Degraded "first") with
  | Degraded r ->
      Alcotest.(check string) "the reason follows an earlier one"
        "first; noise 1175.0 > 4x timer noise 11.3" r
  | h -> Alcotest.failf "expected degraded, got %s" (to_string h)

let test_health_worst () =
  let open Health in
  Alcotest.(check bool) "rejected beats degraded" true
    (is_rejected (worst (Degraded "a") (Rejected "b")));
  Alcotest.(check bool) "degraded beats healthy" false
    (is_healthy (worst Healthy (Degraded "a")));
  (match worst (Degraded "first") (Degraded "second") with
  | Degraded r -> Alcotest.(check string) "first among equals" "first" r
  | h -> Alcotest.failf "expected degraded, got %s" (to_string h))

let suite =
  [
    Alcotest.test_case "empty input" `Quick test_empty;
    Alcotest.test_case "single sample and duplicates" `Quick test_single_and_duplicates;
    Alcotest.test_case "cost envelope" `Quick test_envelope;
    Alcotest.test_case "MAD is fallback-only" `Quick test_mad_fallback_only;
    Alcotest.test_case "fully quarantined" `Quick test_all_quarantined;
    Alcotest.test_case "report adds up" `Quick test_report_adds_up;
    Alcotest.test_case "median and MAD" `Quick test_median_mad;
    Alcotest.test_case "health: judge" `Quick test_health_judge;
    Alcotest.test_case "health: CI width" `Quick test_health_ci_width;
    Alcotest.test_case "health: worst" `Quick test_health_worst;
    Alcotest.test_case "health: noise" `Quick test_health_noise;
  ]
