(* Linalg: Matrix, Solve. *)

module M = Linalg.Matrix

let test_identity_mul () =
  let a = M.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check bool) "I*a = a" true (M.equal (M.mul (M.identity 2) a) a);
  Alcotest.(check bool) "a*I = a" true (M.equal (M.mul a (M.identity 2)) a)

let test_mul_known () =
  let a = M.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = M.of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let expected = M.of_rows [| [| 19.0; 22.0 |]; [| 43.0; 50.0 |] |] in
  Alcotest.(check bool) "known product" true (M.equal (M.mul a b) expected)

let test_ragged_rejected () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_rows: ragged rows") (fun () ->
      ignore (M.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_mat_vec () =
  let a = M.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (array (float 1e-9))) "mat_vec" [| 5.0; 11.0 |] (M.mat_vec a [| 1.0; 2.0 |])

let test_lu_solve () =
  let a = M.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Linalg.Solve.lu_solve a [| 5.0; 10.0 |] in
  Alcotest.(check (array (float 1e-9))) "solution" [| 1.0; 3.0 |] x

let test_lu_solve_pivoting () =
  (* First pivot is zero: requires row exchange. *)
  let a = M.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Linalg.Solve.lu_solve a [| 2.0; 3.0 |] in
  Alcotest.(check (array (float 1e-9))) "swap solution" [| 3.0; 2.0 |] x

let test_singular () =
  let a = M.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" Linalg.Solve.Singular (fun () ->
      ignore (Linalg.Solve.lu_solve a [| 1.0; 1.0 |]))

let test_inverse () =
  let a = M.of_rows [| [| 4.0; 7.0 |]; [| 2.0; 6.0 |] |] in
  let inv = Linalg.Solve.inverse a in
  Alcotest.(check bool) "a * a^-1 = I" true (M.equal ~eps:1e-9 (M.mul a inv) (M.identity 2))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"solve then multiply recovers rhs" ~count:100
         QCheck.(list_of_size (Gen.return 4) (float_range (-3.0) 3.0))
         (fun xs ->
           let a =
             M.of_rows
               [|
                 [| 4.0 +. List.nth xs 0; List.nth xs 1 |];
                 [| List.nth xs 2; 4.0 +. List.nth xs 3 |];
               |]
           in
           let b = [| 1.0; 2.0 |] in
           match Linalg.Solve.lu_solve a b with
           | x ->
               let back = M.mat_vec a x in
               abs_float (back.(0) -. 1.0) < 1e-6 && abs_float (back.(1) -. 2.0) < 1e-6
           | exception Linalg.Solve.Singular -> true));
  ]

let suite =
  [
    Alcotest.test_case "identity mul" `Quick test_identity_mul;
    Alcotest.test_case "mul known" `Quick test_mul_known;
    Alcotest.test_case "ragged rejected" `Quick test_ragged_rejected;
    Alcotest.test_case "mat_vec" `Quick test_mat_vec;
    Alcotest.test_case "lu solve" `Quick test_lu_solve;
    Alcotest.test_case "lu pivoting" `Quick test_lu_solve_pivoting;
    Alcotest.test_case "singular" `Quick test_singular;
    Alcotest.test_case "inverse" `Quick test_inverse;
  ]
  @ qcheck_tests
