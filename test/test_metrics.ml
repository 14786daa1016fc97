(* Stats.Metrics. *)

let feq ?(tol = 1e-9) name a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %f vs %f" name a b) true (abs_float (a -. b) < tol)

let test_mae () = feq "mae" 1.5 (Stats.Metrics.mae [| 1.0; 2.0 |] [| 2.0; 4.0 |])

let test_max_abs () =
  feq "max abs" 2.0 (Stats.Metrics.max_abs_error [| 1.0; 2.0 |] [| 2.0; 4.0 |])

let test_mismatch_msg () =
  match Stats.Metrics.mae [| 1.0 |] [| 1.0; 2.0 |] with
  | _ -> Alcotest.fail "expected exception"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "mae" `Quick test_mae;
    Alcotest.test_case "max abs" `Quick test_max_abs;
    Alcotest.test_case "length mismatch" `Quick test_mismatch_msg;
  ]
