(* Env: sensor models and radio arrivals. *)

let cfg ?(seed = 1) channels radio = { Env.seed; channels; radio }

let test_determinism () =
  let make () = Env.create (cfg [ (0, Env.Gaussian { mu = 500.0; sigma = 50.0 }) ] Env.Silent) in
  let a = make () and b = make () in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Env.read a 0) (Env.read b 0)
  done

let test_unconfigured_channel () =
  let e = Env.create (cfg [] Env.Silent) in
  Alcotest.(check int) "reads 0" 0 (Env.read e 5)

let test_constant () =
  let e = Env.create (cfg [ (0, Env.Constant 321) ] Env.Silent) in
  Alcotest.(check int) "constant" 321 (Env.read e 0)

let test_clamping () =
  let e = Env.create (cfg [ (0, Env.Constant 5000) ] Env.Silent) in
  Alcotest.(check int) "clamped to adc max" Env.adc_max (Env.read e 0);
  let e2 = Env.create (cfg [ (0, Env.Constant (-50)) ] Env.Silent) in
  Alcotest.(check int) "clamped to adc min" Env.adc_min (Env.read e2 0)

let test_uniform_range () =
  let e = Env.create (cfg [ (0, Env.Uniform (100, 110)) ] Env.Silent) in
  for _ = 1 to 500 do
    let v = Env.read e 0 in
    Alcotest.(check bool) "in range" true (v >= 100 && v <= 110)
  done

let test_gaussian_stats () =
  let e = Env.create (cfg [ (0, Env.Gaussian { mu = 500.0; sigma = 30.0 }) ] Env.Silent) in
  let s = Stats.Summary.of_array (Array.init 10_000 (fun _ -> float_of_int (Env.read e 0))) in
  Alcotest.(check bool) "mean near 500" true (abs_float (Stats.Summary.mean s -. 500.0) < 3.0)

let test_random_walk_bounds () =
  let e =
    Env.create
      (cfg [ (0, Env.Random_walk { start = 500; step_sigma = 60.0; lo = 400; hi = 600 }) ] Env.Silent)
  in
  for _ = 1 to 2000 do
    let v = Env.read e 0 in
    Alcotest.(check bool) "bounded" true (v >= 400 && v <= 600)
  done

let test_bursty_switches () =
  let e =
    Env.create
      (cfg
         [
           ( 0,
             Env.Bursty
               {
                 quiet = Env.Constant 100;
                 active = Env.Constant 900;
                 p_enter = 0.2;
                 p_exit = 0.2;
               } );
         ]
         Env.Silent)
  in
  let lows = ref 0 and highs = ref 0 in
  for _ = 1 to 3000 do
    match Env.read e 0 with
    | 100 -> incr lows
    | 900 -> incr highs
    | v -> Alcotest.failf "unexpected reading %d" v
  done;
  Alcotest.(check bool) "both states visited" true (!lows > 100 && !highs > 100)

let test_radio_silent () =
  let e = Env.create (cfg [] Env.Silent) in
  Alcotest.(check (list (pair int int))) "no arrivals" []
    (Env.radio_arrivals e ~from_cycle:0 ~to_cycle:1_000_000)

let test_radio_poisson_rate () =
  let e =
    Env.create (cfg [] (Env.Poisson { per_kilocycle = 2.0; payload_lo = 1; payload_hi = 9 }))
  in
  let arrivals = Env.radio_arrivals e ~from_cycle:0 ~to_cycle:1_000_000 in
  let n = List.length arrivals in
  (* Expect 2000 +- noise. *)
  Alcotest.(check bool) (Printf.sprintf "rate (%d)" n) true (n > 1700 && n < 2300);
  List.iter
    (fun (at, payload) ->
      Alcotest.(check bool) "cycle in window" true (at >= 0 && at < 1_000_000);
      Alcotest.(check bool) "payload in range" true (payload >= 1 && payload <= 9))
    arrivals;
  (* Increasing order. *)
  let rec ordered = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "ordered" true (ordered arrivals)

let test_radio_empty_window () =
  let e =
    Env.create (cfg [] (Env.Poisson { per_kilocycle = 2.0; payload_lo = 0; payload_hi = 1 }))
  in
  Alcotest.(check (list (pair int int))) "inverted window" []
    (Env.radio_arrivals e ~from_cycle:100 ~to_cycle:100)

let test_attach () =
  let d = Mote_machine.Devices.create () in
  let e = Env.create (cfg [ (0, Env.Constant 7) ] Env.Silent) in
  Env.attach e d;
  Alcotest.(check int) "wired" 7 (Mote_machine.Devices.read_sensor d ~channel:0)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "unconfigured channel" `Quick test_unconfigured_channel;
    Alcotest.test_case "constant" `Quick test_constant;
    Alcotest.test_case "clamping" `Quick test_clamping;
    Alcotest.test_case "uniform range" `Quick test_uniform_range;
    Alcotest.test_case "gaussian stats" `Quick test_gaussian_stats;
    Alcotest.test_case "random walk bounds" `Quick test_random_walk_bounds;
    Alcotest.test_case "bursty switches" `Quick test_bursty_switches;
    Alcotest.test_case "radio silent" `Quick test_radio_silent;
    Alcotest.test_case "radio poisson rate" `Quick test_radio_poisson_rate;
    Alcotest.test_case "radio empty window" `Quick test_radio_empty_window;
    Alcotest.test_case "attach" `Quick test_attach;
  ]
