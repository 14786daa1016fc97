(* Equivalence of the sparse/merged EM kernels with the dense per-path
   reference.

   Two layers of protection:
   - golden tests: full-precision (hex-float) θ/σ/log-likelihood/iteration
     values captured from the dense reference implementation on the bundled
     workloads, asserted bit-for-bit against the optimized kernels;
   - a reference implementation of the dense E/M-step kept here and run
     against the optimized [Tomo.Em.estimate] on machine-generated programs,
     also bit-for-bit.

   The optimized kernels are designed to be exactly equal, not merely
   close: expensive per-signature terms are bitwise equal to the per-path
   terms they replace, and the accumulator additions are replayed in raw
   enumeration order.  Any drift here is a bug, so the checks use [=] on
   floats deliberately. *)

module P = Codetomo.Pipeline

let check_float name expected actual =
  if not (Float.equal expected actual) then
    Alcotest.failf "%s: expected %h, got %h" name expected actual

let check_theta name expected actual =
  Alcotest.(check int) (name ^ " arity") (Array.length expected) (Array.length actual);
  Array.iteri (fun j e -> check_float (Printf.sprintf "%s theta[%d]" name j) e actual.(j)) expected

(* The dense reference now lives in the library ({!Tomo.Em.Dense}) so the
   differential fuzzer and these tests exercise the same implementation. *)

let reference_estimate ?max_iters paths ~samples =
  let r = Tomo.Em.Dense.estimate ?max_iters paths ~samples in
  (r.Tomo.Em.theta, r.Tomo.Em.sigma, r.Tomo.Em.iterations, r.Tomo.Em.log_likelihood,
   r.Tomo.Em.converged)

(* --- golden values captured from the dense reference --- *)

type golden = {
  name : string;
  np : int;
  theta : float array;
  sigma : float;
  iterations : int;
  log_likelihood : float;
  converged : bool;
}

let goldens =
  [
    { name = "sense/sense_task res1"; np = 2;
      theta = [| 0x1.9024e6a171025p-1 |];
      sigma = 0x1.999999999999ap-4; iterations = 2;
      log_likelihood = 0x1.dc91cd3db05b7p+11; converged = true };
    { name = "sense/report_task jit8"; np = 48;
      theta = [| 0x1.3026c5a7c3659p-3; 0x1.c22ff277106f2p-5; 0x1.c22ff277106f2p-5 |];
      sigma = 0x1.d49e992c37bc8p+3; iterations = 100;
      log_likelihood = -0x1.b383a86156b16p+10; converged = false };
    { name = "filter/filter_task res4"; np = 8;
      theta = [| 0x1.d47ba46532b9ep-1; 0x1.e8f62f4ad95e2p-3; 0x1.61551cbec8511p-1;
                 0x1.7f74ba451863fp-3 |];
      sigma = 0x1.4209878986e28p+0; iterations = 29;
      log_likelihood = -0x1.c142ad0fd80ebp+13; converged = true };
    { name = "ctp/ctp_rx_task res8"; np = 4096;
      theta = [| 0x1.7ef5fba179c62p-1; 0x1.99ef4455e4adp-3; 0x1.fff2e48e8a71ep-1;
                 0x1.ff58f309e4344p-1; 0x1.f74b744957ed9p-3; 0x1.598d94e45881dp-1 |];
      sigma = 0x1.c53f76303fc66p+1; iterations = 100;
      log_likelihood = -0x1.94cfdf1edeedcp+13; converged = false };
    { name = "ctp/ctp_rx_task jit2"; np = 4096;
      theta = [| 0x1.7eeb7cd8b5081p-1; 0x1.99f1cc298f364p-3; 0x1.fff2e48e8a71ep-1;
                 0x1.fe8902db98b92p-1; 0x1.0c297bbc9a2b3p-2; 0x1.57971e6e3b266p-1 |];
      sigma = 0x1.71655d22a20acp+1; iterations = 100;
      log_likelihood = -0x1.84d6dfb6c425fp+13; converged = false };
    { name = "ctp/ctp_beacon_task res1"; np = 12;
      theta = [| 0x1.8ad06af62b41bp-2 |];
      sigma = 0x1.999999999999ap-4; iterations = 2;
      log_likelihood = -0x1.5af5be5dfa9a8p+6; converged = true };
  ]

let golden_case g config w proc () =
  let run = P.profile ~config w in
  let samples = List.assoc proc run.P.samples in
  let model = P.model_of run proc in
  let paths = Tomo.Paths.enumerate model in
  Alcotest.(check int) "raw path count unchanged" g.np
    (Array.length (Tomo.Paths.paths paths));
  let r = Tomo.Em.estimate ~sigma:(P.noise_sigma config) paths ~samples in
  check_theta g.name g.theta r.Tomo.Em.theta;
  check_float (g.name ^ " sigma") g.sigma r.Tomo.Em.sigma;
  Alcotest.(check int) (g.name ^ " iterations") g.iterations r.Tomo.Em.iterations;
  check_float (g.name ^ " log_likelihood") g.log_likelihood r.Tomo.Em.log_likelihood;
  Alcotest.(check bool) (g.name ^ " converged") g.converged r.Tomo.Em.converged

let golden_tests =
  let d = P.default_config in
  let cases =
    [
      (d, Workloads.sense, "sense_task");
      ({ d with P.timer_jitter = 8.0 }, Workloads.sense, "report_task");
      ({ d with P.timer_resolution = 4 }, Workloads.filter, "filter_task");
      ({ d with P.timer_resolution = 8 }, Workloads.ctp, "ctp_rx_task");
      ({ d with P.timer_jitter = 2.0 }, Workloads.ctp, "ctp_rx_task");
      (d, Workloads.ctp, "ctp_beacon_task");
    ]
  in
  List.map2
    (fun g (config, w, proc) ->
      Alcotest.test_case ("golden: " ^ g.name) `Slow (golden_case g config w proc))
    goldens cases

(* --- generated-program equivalence: optimized vs dense reference --- *)

let generated_case seed depth stmts =
  let config =
    { Workloads.Generator.default_config with seed; max_depth = depth; stmts_per_block = stmts }
  in
  let program = Workloads.Generator.generate ~config () in
  let c = Mote_lang.Compile.compile program in
  let instrumented =
    Mote_isa.Asm.assemble (Profilekit.Probes.instrument c.Mote_lang.Compile.items)
  in
  let devices = Mote_machine.Devices.create () in
  let env = Env.create (Workloads.Generator.env_config ~seed) in
  Env.attach env devices;
  let m = Mote_machine.Machine.create ~program:instrumented ~devices () in
  ignore (Mote_machine.Machine.run_proc m Mote_lang.Compile.init_proc_name);
  for _ = 1 to 300 do
    ignore (Mote_machine.Machine.run_proc m "gen_task")
  done;
  let samples =
    Profilekit.Probes.(samples_for (collect ~program:instrumented ~devices)) "gen_task"
  in
  let cfg = Cfgir.Cfg.of_proc_name instrumented "gen_task" in
  let model = Tomo.Model.of_cfg cfg in
  let paths = Tomo.Paths.enumerate ~max_paths:4000 ~max_visits:8 model in
  (paths, samples)

let test_generated_equivalence () =
  List.iter
    (fun (seed, depth, stmts) ->
      let paths, samples = generated_case seed depth stmts in
      let name = Printf.sprintf "gen seed=%d depth=%d stmts=%d" seed depth stmts in
      let r = Tomo.Em.estimate ~max_iters:25 paths ~samples in
      let ref_theta, ref_sigma, ref_iters, ref_ll, ref_conv =
        reference_estimate ~max_iters:25 paths ~samples
      in
      check_theta name ref_theta r.Tomo.Em.theta;
      check_float (name ^ " sigma") ref_sigma r.Tomo.Em.sigma;
      Alcotest.(check int) (name ^ " iterations") ref_iters r.Tomo.Em.iterations;
      check_float (name ^ " log_likelihood") ref_ll r.Tomo.Em.log_likelihood;
      Alcotest.(check bool) (name ^ " converged") ref_conv r.Tomo.Em.converged)
    [ (1, 3, 2); (2, 4, 4); (5, 2, 2); (7, 4, 3) ]

(* --- signature-merge invariants on generated path sets --- *)

let test_signature_merge_properties () =
  List.iter
    (fun (seed, depth, stmts) ->
      let paths, samples = generated_case seed depth stmts in
      let pth = Tomo.Paths.paths paths in
      let sigs = Tomo.Paths.signatures paths in
      let sig_of = Tomo.Paths.signature_of_path paths in
      let name = Printf.sprintf "gen seed=%d" seed in
      (* Weights partition the raw set. *)
      Alcotest.(check int) (name ^ " weights sum to np")
        (Array.length pth)
        (Array.fold_left (fun acc s -> acc + s.Tomo.Paths.s_weight) 0 sigs);
      (* Every raw path matches its signature exactly. *)
      Array.iteri
        (fun p s ->
          let path = pth.(p) and entry = sigs.(s) in
          if path.Tomo.Paths.cost <> entry.Tomo.Paths.s_cost then
            Alcotest.failf "%s: path %d cost mismatch" name p;
          let dense_of_sparse idx cnt =
            let out = Array.make (Array.length path.Tomo.Paths.taken) 0 in
            Array.iteri (fun i j -> out.(j) <- int_of_float cnt.(i)) idx;
            out
          in
          if
            path.Tomo.Paths.taken
            <> dense_of_sparse entry.Tomo.Paths.s_taken_idx entry.Tomo.Paths.s_taken_cnt
          then Alcotest.failf "%s: path %d taken counts mismatch" name p;
          if
            path.Tomo.Paths.nottaken
            <> dense_of_sparse entry.Tomo.Paths.s_nottaken_idx
                 entry.Tomo.Paths.s_nottaken_cnt
          then Alcotest.failf "%s: path %d nottaken counts mismatch" name p)
        sig_of;
      (* Distinct signatures really are distinct. *)
      let keys = Hashtbl.create 64 in
      Array.iter
        (fun s ->
          let key =
            ( s.Tomo.Paths.s_cost,
              s.Tomo.Paths.s_taken_idx, s.Tomo.Paths.s_taken_cnt,
              s.Tomo.Paths.s_nottaken_idx, s.Tomo.Paths.s_nottaken_cnt )
          in
          if Hashtbl.mem keys key then Alcotest.failf "%s: duplicate signature" name;
          Hashtbl.add keys key ())
        sigs;
      (* Merged prior mass equals the raw prior mass (weights are exact
         integer multiplicities of bit-identical terms). *)
      let theta =
        Array.map (fun _ -> 0.3) (Tomo.Model.uniform_theta (Tomo.Paths.model paths))
      in
      let raw_mass = Tomo.Paths.prior_mass paths ~theta in
      let lp = Tomo.Paths.log_prior paths ~theta in
      let merged_mass = ref 0.0 in
      Array.iteri
        (fun s entry ->
          (* Representative raw-path log prior for this signature. *)
          let rep = ref (-1) in
          Array.iteri (fun p s' -> if s' = s && !rep < 0 then rep := p) sig_of;
          merged_mass :=
            !merged_mass +. (float_of_int entry.Tomo.Paths.s_weight *. exp lp.(!rep)))
        sigs;
      if abs_float (raw_mass -. !merged_mass) > 1e-12 *. (1.0 +. abs_float raw_mass)
      then Alcotest.failf "%s: prior mass %h <> merged %h" name raw_mass !merged_mass;
      ignore samples)
    [ (1, 3, 2); (3, 4, 2); (2, 4, 4) ]

(* --- trajectory recording switch --- *)

let test_record_trajectory () =
  let paths, samples = generated_case 5 2 2 in
  let on = Tomo.Em.estimate ~max_iters:10 paths ~samples in
  let off = Tomo.Em.estimate ~max_iters:10 ~record_trajectory:false paths ~samples in
  Alcotest.(check int) "trajectory length when on" on.Tomo.Em.iterations
    (List.length on.Tomo.Em.trajectory);
  Alcotest.(check (list (pair (list (float 0.0)) (float 0.0))))
    "trajectory empty when off" []
    (List.map (fun (t, ll) -> (Array.to_list t, ll)) off.Tomo.Em.trajectory);
  check_theta "same theta with trajectory off" on.Tomo.Em.theta off.Tomo.Em.theta;
  check_float "same ll" on.Tomo.Em.log_likelihood off.Tomo.Em.log_likelihood

(* --- exactness of the default log-threshold --- *)

let test_log_threshold_default_exact () =
  let paths, samples = generated_case 2 4 4 in
  let dflt = Tomo.Em.estimate ~max_iters:15 paths ~samples in
  let inf_thresh =
    Tomo.Em.estimate ~max_iters:15 ~log_threshold:infinity paths ~samples
  in
  check_theta "default threshold is exact" inf_thresh.Tomo.Em.theta dflt.Tomo.Em.theta;
  check_float "sigma" inf_thresh.Tomo.Em.sigma dflt.Tomo.Em.sigma;
  check_float "ll" inf_thresh.Tomo.Em.log_likelihood dflt.Tomo.Em.log_likelihood;
  (* An aggressive threshold is allowed to drift — it must still converge
     to something sane. *)
  let rough = Tomo.Em.estimate ~max_iters:15 ~log_threshold:30.0 paths ~samples in
  Array.iter
    (fun t ->
      if not (t >= 0.0 && t <= 1.0) then Alcotest.failf "rough theta out of range")
    rough.Tomo.Em.theta

(* --- signature-space Online vs. the per-path reference --- *)

(* Feed the same stream to the signature kernel and to {!Tomo.Online.Dense}
   and compare after every single observation: a rounding difference in
   one step would be carried, and usually amplified, by the next. *)
let check_online_stream name ~decay ~sigma paths samples =
  match Fuzz.Oracles.online_mismatch ~decay ~sigma paths samples with
  | Some msg -> Alcotest.failf "%s decay=%g sigma=%g: %s" name decay sigma msg
  | None -> ()

(* Real timings, then values no path explains — far below, far above and
   between every cost — where all but the nearest signature fall under the
   responsibility cut. *)
let online_stream w proc ~n =
  let run = P.profile ~config:P.default_config w in
  let paths = Tomo.Paths.enumerate (P.model_of run proc) in
  let samples = List.assoc proc run.P.samples in
  let samples = Array.sub samples 0 (Stdlib.min n (Array.length samples)) in
  let lo = Tomo.Paths.min_cost paths and hi = Tomo.Paths.max_cost paths in
  let far = [| lo -. 5000.0; hi +. 5000.0; (lo +. hi) /. 2.0 +. 0.5; lo -. 3.0; hi +. 40.0 |] in
  (paths, Array.concat [ samples; far; samples ])

let test_online_signature_exact () =
  List.iter
    (fun (w, proc, n, expect_signatures) ->
      let paths, samples = online_stream w proc ~n in
      (match expect_signatures with
      | Some (np, ns) ->
          Alcotest.(check int) (proc ^ " raw paths") np
            (Array.length (Tomo.Paths.paths paths));
          Alcotest.(check int) (proc ^ " signatures") ns (Tomo.Paths.num_signatures paths)
      | None -> ());
      List.iter
        (fun decay ->
          List.iter
            (fun sigma -> check_online_stream proc ~decay ~sigma paths samples)
            [ 1.0; 6.0 ])
        [ 0.999; 1.0 ])
    [
      (Workloads.ctp, "ctp_rx_task", 60, Some (4096, 176));
      (Workloads.filter, "filter_task", 400, None);
    ]

let suite =
  golden_tests
  @ [
      Alcotest.test_case "generated programs: optimized = dense reference" `Slow
        test_generated_equivalence;
      Alcotest.test_case "signature merge invariants" `Quick
        test_signature_merge_properties;
      Alcotest.test_case "record_trajectory switch" `Quick test_record_trajectory;
      Alcotest.test_case "default log threshold is exact" `Quick
        test_log_threshold_default_exact;
      Alcotest.test_case "online: signatures = per-path reference" `Quick
        test_online_signature_exact;
    ]
