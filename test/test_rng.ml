(* Stats.Rng: determinism, ranges, stream independence. *)

let test_determinism () =
  let a = Stats.Rng.create 123 and b = Stats.Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Stats.Rng.bits64 a) (Stats.Rng.bits64 b)
  done

let test_different_seeds () =
  let a = Stats.Rng.create 1 and b = Stats.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Stats.Rng.bits64 a = Stats.Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_copy_independent () =
  let a = Stats.Rng.create 9 in
  ignore (Stats.Rng.bits64 a);
  let b = Stats.Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Stats.Rng.bits64 a)
    (Stats.Rng.bits64 b)

let test_split_independent () =
  let parent = Stats.Rng.create 5 in
  let child = Stats.Rng.split parent in
  let xs = Array.init 32 (fun _ -> Stats.Rng.bits64 parent) in
  let ys = Array.init 32 (fun _ -> Stats.Rng.bits64 child) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_split_n_matches_split () =
  let a = Stats.Rng.create 5 and b = Stats.Rng.create 5 in
  let children = Stats.Rng.split_n a 4 in
  Array.iter
    (fun child ->
      let expected = Stats.Rng.split b in
      Alcotest.(check int64) "split_n = repeated split" (Stats.Rng.bits64 expected)
        (Stats.Rng.bits64 child))
    children;
  (* Parents advanced identically. *)
  Alcotest.(check int64) "parent state" (Stats.Rng.bits64 b) (Stats.Rng.bits64 a)

let test_stream_deterministic () =
  let a = Stats.Rng.stream ~seed:42 ~index:3 in
  let b = Stats.Rng.stream ~seed:42 ~index:3 in
  for _ = 1 to 32 do
    Alcotest.(check int64) "same (seed, index) stream" (Stats.Rng.bits64 a)
      (Stats.Rng.bits64 b)
  done

let test_stream_decorrelated () =
  let draws index =
    let rng = Stats.Rng.stream ~seed:42 ~index in
    Array.init 16 (fun _ -> Stats.Rng.bits64 rng)
  in
  Alcotest.(check bool) "index 0 <> index 1" true (draws 0 <> draws 1);
  Alcotest.(check bool) "index 1 <> index 2" true (draws 1 <> draws 2);
  let base = Stats.Rng.create 42 in
  let base_draws = Array.init 16 (fun _ -> Stats.Rng.bits64 base) in
  Alcotest.(check bool) "stream 0 <> create seed" true (draws 0 <> base_draws)

let test_int_bounds () =
  let rng = Stats.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Stats.Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done

let test_int_bad_bound () =
  let rng = Stats.Rng.create 7 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Stats.Rng.int rng 0))

let test_int_covers_all () =
  let rng = Stats.Rng.create 11 in
  let seen = Array.make 6 false in
  for _ = 1 to 1000 do
    seen.(Stats.Rng.int rng 6) <- true
  done;
  Alcotest.(check bool) "all values appear" true (Array.for_all Fun.id seen)

let test_unit_float_range () =
  let rng = Stats.Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Stats.Rng.unit_float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_bernoulli_frequency () =
  let rng = Stats.Rng.create 17 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Stats.Rng.bernoulli rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p near 0.3" true (abs_float (p -. 0.3) < 0.02)

let test_shuffle_is_permutation () =
  let rng = Stats.Rng.create 21 in
  let a = Array.init 20 Fun.id in
  Stats.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

let test_choose_member () =
  let rng = Stats.Rng.create 2 in
  let a = [| 5; 6; 7 |] in
  for _ = 1 to 50 do
    let v = Stats.Rng.choose rng a in
    Alcotest.(check bool) "member" true (Array.exists (( = ) v) a)
  done

let test_categorical_weights () =
  let rng = Stats.Rng.create 33 in
  let counts = Array.make 3 0 in
  let n = 30_000 in
  for _ = 1 to n do
    let i = Stats.Rng.categorical rng [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "w0 ~ 0.1" true (abs_float (frac 0 -. 0.1) < 0.02);
  Alcotest.(check bool) "w2 ~ 0.7" true (abs_float (frac 2 -. 0.7) < 0.02)

let test_categorical_zero_weights () =
  let rng = Stats.Rng.create 1 in
  Alcotest.check_raises "all-zero weights"
    (Invalid_argument "Rng.categorical: weights sum to zero") (fun () ->
      ignore (Stats.Rng.categorical rng [| 0.0; 0.0 |]))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"int always within bound" ~count:500
         QCheck.(pair small_int (int_range 1 1000))
         (fun (seed, bound) ->
           let rng = Stats.Rng.create seed in
           let v = Stats.Rng.int rng bound in
           v >= 0 && v < bound));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"categorical picks positive-weight index" ~count:200
         QCheck.(pair small_int (list_of_size (Gen.int_range 1 8) (float_range 0.0 10.0)))
         (fun (seed, ws) ->
           QCheck.assume (List.exists (fun w -> w > 0.0) ws);
           let rng = Stats.Rng.create seed in
           let w = Array.of_list ws in
           let i = Stats.Rng.categorical rng w in
           i >= 0 && i < Array.length w && w.(i) >= 0.0));
  ]

(* Hex goldens recorded before the generator state became 8 unboxed
   bytes: the first three outputs of [bits64], [unit_float], [int] and
   [Dist.gaussian] from a fresh generator of each kind.  Any change to the
   state update, the mixer or a derived draw shows up here bit for bit. *)
let rng_goldens =
  [
    ( "create",
      (fun () -> Stats.Rng.create 12345),
      [ 0x22118258a9d111a0L; 0x346edce5f713f8edL; 0x1e9a57bc80e6721dL ],
      [ "0x1.108c12c54e888p-3"; "0x1.a376e72fb89fcp-3"; "0x1.e9a57bc80e67p-4" ],
      [ 741225; 278312; 875853 ],
      [ "0x1.32920fea3c8c5p-3"; "0x1.ceb0bc4b18639p-3"; "-0x1.3c97cd760e125p-1" ] );
    ( "split",
      (fun () -> Stats.Rng.split (Stats.Rng.create 777)),
      [ 0x7369e2460e9c0bc5L; 0x7df00993facaa7a7L; 0xc45b20daab7dcdc4L ],
      [ "0x1.cda789183a702p-2"; "0x1.f7c0264feb2a8p-2"; "0x1.88b641b556fb9p-1" ],
      [ 104905; 471114; 146577 ],
      [ "-0x1.17ec9b88f80a3p+0"; "0x1.8581d571028d8p+0"; "0x1.8acdeb890fdbcp-2" ] );
    ( "stream",
      (fun () -> Stats.Rng.stream ~seed:9 ~index:4),
      [ 0xee02f680f4248374L; 0x8d5b1fedff8143aeL; 0x3589baf76b88ca52L ],
      [ "0x1.dc05ed01e849p-1"; "0x1.1ab63fdbff028p-1"; "0x1.ac4dd7bb5c464p-3" ],
      [ 297834; 608896; 693079 ],
      [ "-0x1.17460d43a1178p+1"; "-0x1.f558bdad3f8c6p-2"; "-0x1.e3fe12c98ff8fp-5" ] );
  ]

let test_hex_goldens () =
  let hex = List.map (Printf.sprintf "%h") in
  List.iter
    (fun (name, make, bits, units, ints, gaussians) ->
      let draw f =
        let rng = make () in
        List.init 3 (fun _ -> f rng)
      in
      Alcotest.(check (list int64)) (name ^ " bits64") bits (draw Stats.Rng.bits64);
      Alcotest.(check (list string)) (name ^ " unit_float") units
        (hex (draw Stats.Rng.unit_float));
      Alcotest.(check (list int)) (name ^ " int") ints
        (draw (fun rng -> Stats.Rng.int rng 1_000_003));
      Alcotest.(check (list string)) (name ^ " gaussian") gaussians
        (hex (draw (fun rng -> Stats.Dist.gaussian rng ~mu:0.0 ~sigma:1.0))))
    rng_goldens

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "different seeds" `Quick test_different_seeds;
    Alcotest.test_case "copy" `Quick test_copy_independent;
    Alcotest.test_case "split" `Quick test_split_independent;
    Alcotest.test_case "split_n" `Quick test_split_n_matches_split;
    Alcotest.test_case "stream determinism" `Quick test_stream_deterministic;
    Alcotest.test_case "stream decorrelation" `Quick test_stream_decorrelated;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int bad bound" `Quick test_int_bad_bound;
    Alcotest.test_case "int covers all" `Quick test_int_covers_all;
    Alcotest.test_case "unit_float range" `Quick test_unit_float_range;
    Alcotest.test_case "bernoulli frequency" `Quick test_bernoulli_frequency;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "choose member" `Quick test_choose_member;
    Alcotest.test_case "categorical weights" `Quick test_categorical_weights;
    Alcotest.test_case "categorical zero weights" `Quick test_categorical_zero_weights;
    Alcotest.test_case "hex goldens" `Quick test_hex_goldens;
  ]
  @ qcheck_tests
