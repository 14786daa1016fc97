(* Stats.Summary. *)

let feq ?(tol = 1e-9) name a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %f vs %f" name a b) true (abs_float (a -. b) < tol)

let test_basic () =
  let s = Stats.Summary.of_array [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check int) "count" 4 (Stats.Summary.count s);
  feq "mean" 2.5 (Stats.Summary.mean s);
  feq "variance" (5.0 /. 3.0) (Stats.Summary.variance s);
  feq "min" 1.0 (Stats.Summary.min s);
  feq "max" 4.0 (Stats.Summary.max s);
  feq "total" 10.0 (Stats.Summary.total s)

let test_single () =
  let s = Stats.Summary.of_array [| 7.0 |] in
  feq "mean" 7.0 (Stats.Summary.mean s);
  feq "variance of single" 0.0 (Stats.Summary.variance s)

let test_merge () =
  let a = [| 1.0; 2.0; 9.5 |] and b = [| -4.0; 0.5; 3.0; 3.0 |] in
  let merged = Stats.Summary.merge (Stats.Summary.of_array a) (Stats.Summary.of_array b) in
  let all = Stats.Summary.of_array (Array.append a b) in
  feq "merged mean" (Stats.Summary.mean all) (Stats.Summary.mean merged);
  feq "merged variance" (Stats.Summary.variance all) (Stats.Summary.variance merged);
  Alcotest.(check int) "merged count" 7 (Stats.Summary.count merged)

let test_merge_empty () =
  let a = Stats.Summary.create () in
  let b = Stats.Summary.of_array [| 2.0; 4.0 |] in
  let merged = Stats.Summary.merge a b in
  feq "empty + b mean" 3.0 (Stats.Summary.mean merged)

let test_quantile () =
  let data = [| 4.0; 1.0; 3.0; 2.0 |] in
  feq "median" 2.5 (Stats.Summary.quantile data 0.5);
  feq "min" 1.0 (Stats.Summary.quantile data 0.0);
  feq "max" 4.0 (Stats.Summary.quantile data 1.0);
  feq "q25" 1.75 (Stats.Summary.quantile data 0.25)

let test_quantile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.quantile: empty data") (fun () ->
      ignore (Stats.Summary.quantile [||] 0.5));
  Alcotest.check_raises "bad q" (Invalid_argument "Summary.quantile: q outside [0,1]")
    (fun () -> ignore (Stats.Summary.quantile [| 1.0 |] 1.5))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"welford matches naive variance" ~count:200
         QCheck.(list_of_size (Gen.int_range 2 50) (float_range (-100.0) 100.0))
         (fun xs ->
           let a = Array.of_list xs in
           let s = Stats.Summary.of_array a in
           let n = float_of_int (Array.length a) in
           let mean = Array.fold_left ( +. ) 0.0 a /. n in
           let var =
             Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 a /. (n -. 1.0)
           in
           abs_float (Stats.Summary.variance s -. var) < 1e-6 *. (1.0 +. var)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"mean within [min,max]" ~count:200
         QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.0) 1000.0))
         (fun xs ->
           let s = Stats.Summary.of_array (Array.of_list xs) in
           Stats.Summary.mean s >= Stats.Summary.min s -. 1e-9
           && Stats.Summary.mean s <= Stats.Summary.max s +. 1e-9));
  ]

let suite =
  [
    Alcotest.test_case "basic" `Quick test_basic;
    Alcotest.test_case "single" `Quick test_single;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "merge empty" `Quick test_merge_empty;
    Alcotest.test_case "quantile" `Quick test_quantile;
    Alcotest.test_case "quantile errors" `Quick test_quantile_errors;
  ]
  @ qcheck_tests
