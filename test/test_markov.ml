(* Markov: Chain, Absorbing, Walk. *)

module M = Linalg.Matrix
module Chain = Markov.Chain
module Absorbing = Markov.Absorbing
module Walk = Markov.Walk

let feq ?(tol = 1e-9) name a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %f vs %f" name a b) true (abs_float (a -. b) < tol)

(* Two transient states: 0 -> 1 w.p. p, exits w.p. 1-p; 1 always exits. *)
let two_state p = Chain.of_edges ~size:2 [ (0, 1, p) ]

let test_create_validates () =
  Alcotest.check_raises "row sum > 1" (Invalid_argument "Chain.create: row sum exceeds 1")
    (fun () -> ignore (Chain.of_edges ~size:2 [ (0, 1, 0.7); (0, 0, 0.5) ]));
  Alcotest.check_raises "negative" (Invalid_argument "Chain.create: negative probability")
    (fun () -> ignore (Chain.create (M.of_rows [| [| -0.1 |] |])))

let test_accessors () =
  let c = two_state 0.25 in
  Alcotest.(check int) "size" 2 (Chain.size c);
  feq "prob" 0.25 (Chain.prob c 0 1);
  feq "leak 0" 0.75 (Chain.leak c 0);
  feq "leak 1" 1.0 (Chain.leak c 1)

let test_step_distribution () =
  let rng = Stats.Rng.create 5 in
  let c = two_state 0.3 in
  let go = ref 0 and absorb = ref 0 in
  for _ = 1 to 20_000 do
    match Chain.step rng c 0 with Some 1 -> incr go | None -> incr absorb | Some _ -> ()
  done;
  let p = float_of_int !go /. 20_000.0 in
  Alcotest.(check bool) "step matches prob" true (abs_float (p -. 0.3) < 0.02)

let test_absorbing_expected_visits () =
  (* Geometric loop: state 0 self-loops w.p. q, exits w.p. 1-q.
     Expected visits = 1/(1-q). *)
  let q = 0.75 in
  let c = Chain.of_edges ~size:1 [ (0, 0, q) ] in
  let a = Absorbing.analyze c in
  feq ~tol:1e-9 "geometric visits" 4.0 (Absorbing.expected_visits a ~start:0).(0)

let test_absorbing_mean_reward () =
  (* 0 -> 1 w.p. 0.5 (then exit), exit directly otherwise.
     Rewards 3 and 5: E = 3 + 0.5*5 = 5.5. *)
  let c = two_state 0.5 in
  let a = Absorbing.analyze c in
  feq "mean reward" 5.5 (Absorbing.mean_reward a ~rewards:[| 3.0; 5.0 |] ~start:0)

let test_absorbing_variance_analytic () =
  (* Same chain: T = 3 + 5*B with B~Bernoulli(1/2); Var = 25/4. *)
  let c = two_state 0.5 in
  let a = Absorbing.analyze c in
  feq "variance" 6.25 (Absorbing.variance_reward a ~rewards:[| 3.0; 5.0 |] ~start:0)

let test_variance_vs_monte_carlo () =
  (* Loop chain: verify second-moment recursion against simulation. *)
  let c = Chain.of_edges ~size:2 [ (0, 1, 0.8); (1, 0, 0.4) ] in
  let rewards = [| 2.0; 7.0 |] in
  let a = Absorbing.analyze c in
  let mean = Absorbing.mean_reward a ~rewards ~start:0 in
  let var = Absorbing.variance_reward a ~rewards ~start:0 in
  let rng = Stats.Rng.create 77 in
  let samples = Walk.sample_rewards rng c ~rewards ~start:0 ~samples:60_000 ~max_steps:10_000 in
  let s = Stats.Summary.of_array samples in
  Alcotest.(check bool) "mean close" true
    (abs_float (Stats.Summary.mean s -. mean) < 0.05 *. mean);
  Alcotest.(check bool) "variance close" true
    (abs_float (Stats.Summary.variance s -. var) < 0.05 *. var)

let test_walk_records () =
  let rng = Stats.Rng.create 3 in
  let c = two_state 1.0 in
  let r = Walk.run rng c ~rewards:[| 1.0; 10.0 |] ~start:0 ~max_steps:100 in
  Alcotest.(check (list int)) "visits both" [ 0; 1 ] r.Walk.states;
  feq "reward" 11.0 r.Walk.reward

let test_walk_max_steps () =
  let rng = Stats.Rng.create 3 in
  (* Never absorbs. *)
  let c = Chain.create (M.of_rows [| [| 1.0 |] |]) in
  Alcotest.(check bool) "raises on cap" true
    (match Walk.run rng c ~rewards:[| 0.0 |] ~start:0 ~max_steps:50 with
    | _ -> false
    | exception Failure _ -> true)

let test_edge_counts () =
  let rng = Stats.Rng.create 13 in
  let c = two_state 0.5 in
  let counts = Walk.edge_counts rng c ~start:0 ~samples:10_000 ~max_steps:100 in
  let p = float_of_int counts.(0).(1) /. 10_000.0 in
  Alcotest.(check bool) "edge frequency" true (abs_float (p -. 0.5) < 0.02)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"absorbing mean equals visits dot rewards" ~count:100
         QCheck.(triple (float_range 0.05 0.9) (float_range 0.05 0.9) (float_range 0.0 10.0))
         (fun (p, q, r) ->
           let c = Chain.of_edges ~size:2 [ (0, 1, p); (1, 0, q) ] in
           let a = Absorbing.analyze c in
           let visits = Absorbing.expected_visits a ~start:0 in
           let mean = Absorbing.mean_reward a ~rewards:[| r; 2.0 |] ~start:0 in
           abs_float (mean -. ((visits.(0) *. r) +. (visits.(1) *. 2.0))) < 1e-6));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"variance is non-negative" ~count:100
         QCheck.(pair (float_range 0.0 0.95) (float_range 0.0 0.95))
         (fun (p, q) ->
           let c = Chain.of_edges ~size:2 [ (0, 1, p); (1, 0, q) ] in
           let a = Absorbing.analyze c in
           Absorbing.variance_reward a ~rewards:[| 1.0; 3.0 |] ~start:0 >= 0.0));
  ]

let suite =
  [
    Alcotest.test_case "create validates" `Quick test_create_validates;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "step distribution" `Quick test_step_distribution;
    Alcotest.test_case "expected visits" `Quick test_absorbing_expected_visits;
    Alcotest.test_case "mean reward" `Quick test_absorbing_mean_reward;
    Alcotest.test_case "variance analytic" `Quick test_absorbing_variance_analytic;
    Alcotest.test_case "variance vs monte carlo" `Slow test_variance_vs_monte_carlo;
    Alcotest.test_case "walk records" `Quick test_walk_records;
    Alcotest.test_case "walk max steps" `Quick test_walk_max_steps;
    Alcotest.test_case "edge counts" `Quick test_edge_counts;
  ]
  @ qcheck_tests
