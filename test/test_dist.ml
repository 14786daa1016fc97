(* Stats.Dist: sampler moments and density identities. *)

let rng () = Stats.Rng.create 2024

let moments n f =
  let r = rng () in
  let s = Stats.Summary.create () in
  for _ = 1 to n do
    Stats.Summary.add s (f r)
  done;
  (Stats.Summary.mean s, Stats.Summary.stddev s)

let close ?(tol = 0.05) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%f - %f| < %f" name actual expected tol)
    true
    (abs_float (actual -. expected) < tol)

let test_gaussian () =
  let mean, std = moments 50_000 (fun r -> Stats.Dist.gaussian r ~mu:10.0 ~sigma:3.0) in
  close "gaussian mean" 10.0 mean;
  close "gaussian std" 3.0 std

let test_gaussian_negative_sigma () =
  Alcotest.check_raises "negative sigma" (Invalid_argument "Dist.gaussian: negative sigma")
    (fun () -> ignore (Stats.Dist.gaussian (rng ()) ~mu:0.0 ~sigma:(-1.0)))

let test_exponential () =
  let mean, std = moments 50_000 (fun r -> Stats.Dist.exponential r ~rate:2.0) in
  close ~tol:0.02 "exponential mean" 0.5 mean;
  close ~tol:0.02 "exponential std" 0.5 std

let test_gaussian_pdf_integrates () =
  (* Trapezoid over +-6 sigma. *)
  let mu = 1.0 and sigma = 2.0 in
  let steps = 4000 in
  let lo = mu -. (6.0 *. sigma) and hi = mu +. (6.0 *. sigma) in
  let h = (hi -. lo) /. float_of_int steps in
  let total = ref 0.0 in
  for i = 0 to steps - 1 do
    let x = lo +. (h *. (float_of_int i +. 0.5)) in
    total := !total +. (h *. Stats.Dist.gaussian_pdf ~mu ~sigma x)
  done;
  close ~tol:1e-3 "pdf mass" 1.0 !total

let test_log_pdf_consistent () =
  let xs = [ -3.0; 0.0; 0.7; 5.0 ] in
  List.iter
    (fun x ->
      let p = Stats.Dist.gaussian_pdf ~mu:0.5 ~sigma:1.5 x in
      let lp = Stats.Dist.gaussian_log_pdf ~mu:0.5 ~sigma:1.5 x in
      close ~tol:1e-9 "log pdf" (log p) lp)
    xs

let suite =
  [
    Alcotest.test_case "gaussian" `Quick test_gaussian;
    Alcotest.test_case "gaussian negative sigma" `Quick test_gaussian_negative_sigma;
    Alcotest.test_case "exponential" `Quick test_exponential;
    Alcotest.test_case "gaussian pdf integrates" `Quick test_gaussian_pdf_integrates;
    Alcotest.test_case "log pdf consistent" `Quick test_log_pdf_consistent;
  ]
