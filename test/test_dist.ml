(* Stats.Dist: sampler moments and density identities. *)

let rng () = Stats.Rng.create 2024

let moments n f =
  let r = rng () in
  let s = Stats.Summary.of_array (Array.init n (fun _ -> f r)) in
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

(* A draw allocates at most its boxed float result (2 words): the
   uniform variates it is built from cross no module boundary as floats. *)
let test_draws_allocate_only_the_result () =
  let per_draw f =
    let r = rng () in
    let n = 10_000 in
    let before = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f r))
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let check name f =
    let words = per_draw f in
    Alcotest.(check bool) (Printf.sprintf "%s: %.2f words per draw" name words) true (words <= 2.01)
  in
  check "gaussian" (fun r -> Stats.Dist.gaussian r ~mu:10.0 ~sigma:3.0);
  check "exponential" (fun r -> Stats.Dist.exponential r ~rate:2.0)

let suite =
  [
    Alcotest.test_case "gaussian" `Quick test_gaussian;
    Alcotest.test_case "gaussian negative sigma" `Quick test_gaussian_negative_sigma;
    Alcotest.test_case "exponential" `Quick test_exponential;
    Alcotest.test_case "draws allocate only the result" `Quick
      test_draws_allocate_only_the_result;
    Alcotest.test_case "gaussian pdf integrates" `Quick test_gaussian_pdf_integrates;
    Alcotest.test_case "log pdf consistent" `Quick test_log_pdf_consistent;
  ]
