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

(* --- the em_jitter regime: many distinct values, σ re-estimated --- *)

let ctp_jittered jitter =
  lazy
    (let config = { P.default_config with P.timer_jitter = jitter } in
     let run = P.profile ~config Workloads.ctp in
     let paths = Tomo.Paths.enumerate (P.model_of run "ctp_rx_task") in
     (config, paths, List.assoc "ctp_rx_task" run.P.samples))

let ctp_jitter4 = ctp_jittered 4.0
let ctp_jitter8 = ctp_jittered 8.0

let check_result name (e : Tomo.Em.result) (a : Tomo.Em.result) =
  check_theta name e.Tomo.Em.theta a.Tomo.Em.theta;
  check_float (name ^ " sigma") e.Tomo.Em.sigma a.Tomo.Em.sigma;
  Alcotest.(check int) (name ^ " iterations") e.Tomo.Em.iterations a.Tomo.Em.iterations;
  check_float (name ^ " log_likelihood") e.Tomo.Em.log_likelihood a.Tomo.Em.log_likelihood;
  Alcotest.(check bool) (name ^ " converged") e.Tomo.Em.converged a.Tomo.Em.converged

(* Thirty iterations, so that the replay's accumulators are non-zero
   from the second value of each iteration on and most values skip
   terms below the accumulators' half gaps; the first value of every
   iteration starts from all-zero accumulators, where nothing is skipped
   and every term is live.  Jitter 4 gives sharp posteriors (few live
   signatures per value), jitter 8 flat ones (σ̂ in the hundreds). *)
let dense_case lazy_case ~values () =
  let config, paths, samples = Lazy.force lazy_case in
  Alcotest.(check int) "distinct values" values
    (Array.length (Tomo.Em.group_samples samples));
  let sigma = P.noise_sigma config in
  check_result
    (Printf.sprintf "ctp_rx_task jit%g" config.P.timer_jitter)
    (Tomo.Em.Dense.estimate ~max_iters:30 ~sigma paths ~samples)
    (Tomo.Em.estimate ~max_iters:30 ~sigma paths ~samples)

(* --- robust-path goldens (no dense oracle: bits pinned as recorded
   before the kernel rewrite) --- *)

let robust_goldens =
  [
    ( { name = "filter/filter_task res4"; np = 8;
        theta = [| 0x1.d47f78f252b41p-1; 0x1.e912d4abd283ap-3; 0x1.615365c6542cp-1;
                   0x1.7f1b9b5de8262p-3 |];
        sigma = 0x1.41e3846b5c793p+0; iterations = 45;
        log_likelihood = -0x1.c142ea497e186p+13; converged = true },
      0x1.9ca2b09cce72p-14,
      ({ P.default_config with P.timer_resolution = 4 }, Workloads.filter, "filter_task") );
    ( { name = "filter/filter_task jit4"; np = 8;
        theta = [| 0x1.00e96adb0e21dp-1; 0x1.ad54f6b65dc0fp-2; 0x1.8634955d3c054p-1;
                   0x1.a2dbccd9cd874p-2 |];
        sigma = 0x1.35e32a71a5063p+2; iterations = 100;
        log_likelihood = -0x1.0d43330c3e8b9p+14; converged = false },
      0x1.19094a96f3018p-12,
      ({ P.default_config with P.timer_jitter = 4.0 }, Workloads.filter, "filter_task") );
    ( { name = "ctp/ctp_rx_task jit2"; np = 4096;
        theta = [| 0x1.7eec3ba6bd161p-1; 0x1.99f1c02d0282dp-3; 0x1.fff2e48e8a71ep-1;
                   0x1.fe95e92452398p-1; 0x1.0c3c557449e51p-2; 0x1.5796863b15f1ep-1 |];
        sigma = 0x1.71664e8a56f1cp+1; iterations = 100;
        log_likelihood = -0x1.84d6dea11a542p+13; converged = false },
      0x1.0c6f7a0b5ed8dp-20,
      ({ P.default_config with P.timer_jitter = 2.0 }, Workloads.ctp, "ctp_rx_task") );
    ( { name = "ctp/ctp_rx_task res8"; np = 4096;
        theta = [| 0x1.7ef6bb7b93fe4p-1; 0x1.99ef33a335ce6p-3; 0x1.fff2e48e8a71ep-1;
                   0x1.ff66129ca7ef1p-1; 0x1.f774f99354759p-3; 0x1.598cffa2b0215p-1 |];
        sigma = 0x1.c54061a0028f1p+1; iterations = 100;
        log_likelihood = -0x1.94cfd8205fd95p+13; converged = false },
      0x1.0c6f7a0b5ed8dp-20,
      ({ P.default_config with P.timer_resolution = 8 }, Workloads.ctp, "ctp_rx_task") );
  ]

let robust_golden_case (g, eps, (config, w, proc)) () =
  let run = P.profile ~config w in
  let samples = List.assoc proc run.P.samples in
  let paths = Tomo.Paths.enumerate (P.model_of run proc) in
  Alcotest.(check int) "raw path count unchanged" g.np
    (Array.length (Tomo.Paths.paths paths));
  let r =
    Tomo.Em.estimate ~robust:true ~sigma:(P.noise_sigma config) paths
      ~samples
  in
  check_result g.name
    { Tomo.Em.theta = g.theta; sigma = g.sigma; iterations = g.iterations;
      log_likelihood = g.log_likelihood; converged = g.converged; trajectory = [];
      outlier_eps = None }
    r;
  match r.Tomo.Em.outlier_eps with
  | Some e -> check_float (g.name ^ " eps") eps e
  | None -> Alcotest.failf "%s: robust result carries no eps" g.name

let robust_golden_tests =
  List.map
    (fun ((g, _, _) as c) ->
      Alcotest.test_case ("robust golden: " ^ g.name) `Slow (robust_golden_case c))
    robust_goldens

(* --- the exact kernel allocates nothing per value or per raw path --- *)

(* Ten more iterations of [~tol:0.0] EM on ctp_rx_task (4096 raw paths,
   97 or 153 distinct values) may allocate only per-iteration θ-sized
   arrays and scalars: a bound in (k + 1)-word units that does not grow
   with the path or value count.  A boxed float per raw-path update (the
   bug this guards against) costs about 140k words per iteration here;
   at jitter 4 most values take the live-path walk, at jitter 8 the
   chain sweep as well. *)
let test_em_allocation lazy_case () =
  let config, paths, samples = Lazy.force lazy_case in
  let sigma = P.noise_sigma config in
  let words iters =
    let before = Gc.minor_words () in
    ignore (Tomo.Em.estimate ~tol:0.0 ~max_iters:iters ~sigma paths ~samples);
    Gc.minor_words () -. before
  in
  ignore (words 1);
  let per_iter = (words 20 -. words 10) /. 10.0 in
  let k = Tomo.Model.num_params (Tomo.Paths.model paths) in
  let bound = float_of_int (12 * (k + 1)) in
  if per_iter > bound then
    Alcotest.failf "%.0f words per iteration, bound %.0f (k = %d)" per_iter bound k

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

(* --- the no-op rule the replay skips terms by --- *)

(* Whenever [Paths.skips a x] holds, [a +. x] must be [a] bit for bit,
   and stay so after [a] grows by any non-negative amount (the replay
   judges a term against the accumulator before the value, then adds it
   to whatever the accumulator has become).  Accumulators: 0, subnormals,
   powers of two (whose gap above is twice the gap below), odd and even
   last mantissa bits (a term of exactly half the gap rounds an odd
   accumulator up and leaves an even one), max_float, ∞ and NaN.  Terms:
   0, the half gap itself and its neighbours, tiny and huge values, ∞
   and NaN; NaN and ∞ terms must never be skipped. *)
let test_skips () =
  let bits = Int64.bits_of_float in
  let odd a = Int64.logand (bits a) 1L = 1L in
  let tiny = Float.succ 0.0 in
  let accs =
    [ 0.0; tiny; 2.0 *. tiny; 3.0 *. tiny; Float.min_float; Float.pred Float.min_float;
      0.5; 1.0; Float.succ 1.0; Float.pred 1.0; 2.0; 3.0; 1024.0; Float.succ 1024.0; 1e-300;
      123.456; 1e300; Float.pred Float.max_float; Float.max_float; Float.infinity;
      Float.nan ]
  in
  let rng = Stats.Rng.create 3 in
  let accs =
    accs
    @ List.init 200 (fun _ ->
          Float.ldexp (1.0 +. Stats.Rng.float rng 1.0) (Stats.Rng.int rng 2100 - 1074))
  in
  let checked_odd_tie = ref false and checked_even_tie = ref false in
  List.iter
    (fun a ->
      let h = (Float.succ a -. a) /. 2.0 in
      let terms =
        [ 0.0; -0.0; tiny; h; Float.pred h; Float.succ h; h /. 2.0; 2.0 *. h; 1.0; 1e300;
          Float.infinity; Float.nan ]
        (* The kernel's terms are never negative. *)
        |> List.filter (fun x -> not (x < 0.0))
      in
      List.iter
        (fun x ->
          if Float.is_nan x || x = Float.infinity then begin
            if Tomo.Paths.skips a x then Alcotest.failf "skips %h %h: NaN/inf term skipped" a x
          end
          else if Tomo.Paths.skips a x then begin
            if bits (a +. x) <> bits a then
              Alcotest.failf "skips %h %h but the sum is %h" a x (a +. x);
            List.iter
              (fun g ->
                let a' = a +. g in
                if bits (a' +. x) <> bits a' then
                  Alcotest.failf "skips %h %h, but after growing to %h the sum is %h" a x a'
                    (a' +. x))
              [ tiny; h; 2.0 *. h; 1.0; a; 1e10 ]
          end;
          if x = h && h > 0.0 && Float.is_finite a then begin
            if odd a then checked_odd_tie := true else checked_even_tie := true
          end)
        terms;
      (* Below the half gap of a finite, positive accumulator the rule
         must skip: it is not vacuous. *)
      if Float.is_finite a && h > 0.0 && a < Float.max_float
         && not (Tomo.Paths.skips a (Float.pred h))
      then Alcotest.failf "skips %h %h: a term below half the gap is live" a (Float.pred h))
    accs;
  Alcotest.(check bool) "an odd accumulator met its exact half gap" true !checked_odd_tie;
  Alcotest.(check bool) "an even accumulator met its exact half gap" true !checked_even_tie;
  (* The accumulators and terms the kernel sees: non-negative sums. *)
  Alcotest.(check bool) "zero term on zero sum" true (Tomo.Paths.skips 0.0 0.0);
  Alcotest.(check bool) "smallest subnormal on zero sum" false (Tomo.Paths.skips 0.0 tiny)

(* --- the raw-order replay, both strategies, against a dense loop --- *)

(* Responsibilities that leave every path live or only one signature
   live, replayed six times into the same sums: a fresh replay walks the
   paths first, then (every path live) switches to the chain sweep once
   it has walked enough to pay for the plan.  Whichever runs, each
   accumulator must end as the dense per-path loop leaves it.  From the
   second replay on the accumulators are non-zero, so terms below their
   half gaps are skipped: the "wide" patterns put responsibilities and σ
   terms anywhere from 1 down to 1e-40, and the "edge" pattern sets each
   signature's largest term just below, at or just above the smallest
   half gap among the sums it touches (recomputed here, before every
   replay, from the dense loop's own sums).  There, the last signature
   (the last to first appear in raw order) adds terms big enough to
   carry every sum it touches past a power of two: the gap a term is
   judged by is the one before the value, not the doubled one after. *)
let test_replay_strategies () =
  let half_gap a = (Float.succ a -. a) /. 2.0 in
  let check_set name paths =
    let ns = Tomo.Paths.num_signatures paths in
    let k = Tomo.Model.num_params (Tomo.Paths.model paths) in
    let sig_of = Tomo.Paths.signature_of_path paths in
    let raw = Tomo.Paths.paths paths in
    let f = Tomo.Paths.flat paths in
    let rng = Stats.Rng.create 11 in
    let uniform lo hi = Array.init ns (fun _ -> lo +. Stats.Rng.float rng (hi -. lo)) in
    let wide () = Array.init ns (fun _ -> 10.0 ** -.Stats.Rng.float rng 40.0) in
    let fixed resp sq _ _ _ _ = (resp, sq) in
    let nudge v x = match v with 0 -> Float.pred x | 1 -> x | _ -> Float.succ x in
    let first_resp = uniform 0.5 1.0 and first_sq = uniform 0.0 3.0 in
    let edge round e_taken e_either e_sq =
      if round = 1 then (first_resp, first_sq)
      else
        let gap = half_gap e_sq in
        ( Array.init ns (fun s ->
              let m = ref infinity and c = ref 0.0 in
              for i = f.Tomo.Paths.taken_off.(s) to f.Tomo.Paths.taken_off.(s + 1) - 1 do
                let j = f.Tomo.Paths.taken_idx.(i) in
                m := Float.min !m (Float.min (half_gap e_taken.(j)) (half_gap e_either.(j)));
                c := Float.max !c f.Tomo.Paths.taken_cnt.(i)
              done;
              for i = f.Tomo.Paths.nottaken_off.(s) to f.Tomo.Paths.nottaken_off.(s + 1) - 1 do
                m := Float.min !m (half_gap e_either.(f.Tomo.Paths.nottaken_idx.(i)));
                c := Float.max !c f.Tomo.Paths.nottaken_cnt.(i)
              done;
              if s = ns - 1 then 4.0 *. (1.0 +. Array.fold_left Float.max 0.0 e_either)
              else if !c = 0.0 then 0.5
              else nudge (s mod 3) (!m /. !c)),
          Array.init ns (fun s ->
              if s = ns - 1 then 4.0 *. (1.0 +. e_sq)
              else match s / 3 mod 4 with 0 -> 0.0 | v -> nudge (v - 1) gap) )
    in
    (* After a first replay of random responsibilities, one signature at
       a time carries a term of exactly half the gap of an odd
       accumulator it touches, the smallest half gap among them, and
       every other signature is 0.  Round to nearest ties to even, so
       the dense loop moves that accumulator up one ulp: the replay must
       count the tie as live. *)
    let ties = ref 0 in
    let tie round e_taken e_either _ =
      if round = 1 then (first_resp, first_sq)
      else begin
        let odd a = Int64.logand (Int64.bits_of_float a) 1L = 1L in
        let resp = Array.make ns 0.0 in
        let found = ref false in
        for s = 0 to ns - 1 do
          if not !found then begin
            let m = ref infinity and c = ref 0.0 and hit = ref None in
            let see a cnt =
              let h = half_gap a in
              if h < !m || (h = !m && cnt >= !c && odd a) then begin
                m := Float.min !m h;
                hit := if odd a then Some cnt else None
              end;
              c := Float.max !c cnt
            in
            for i = f.Tomo.Paths.taken_off.(s) to f.Tomo.Paths.taken_off.(s + 1) - 1 do
              let j = f.Tomo.Paths.taken_idx.(i) and cnt = f.Tomo.Paths.taken_cnt.(i) in
              see e_taken.(j) cnt;
              see e_either.(j) cnt
            done;
            for i = f.Tomo.Paths.nottaken_off.(s) to f.Tomo.Paths.nottaken_off.(s + 1) - 1 do
              see e_either.(f.Tomo.Paths.nottaken_idx.(i)) f.Tomo.Paths.nottaken_cnt.(i)
            done;
            match !hit with
            | Some cnt when cnt = !c && fst (Float.frexp cnt) = 0.5 && !m > 0.0 ->
                resp.(s) <- !m /. cnt;
                found := true;
                incr ties
            | _ -> ()
          end
        done;
        (resp, Array.make ns 0.0)
      end
    in
    List.iter
      (fun (label, threshold, next) ->
        let taken = Array.make k 0.0 and either = Array.make k 0.0 in
        let rp = Tomo.Paths.replay paths in
        let sums = Tomo.Paths.replay_sums rp in
        let e_taken = Array.make k 0.0 and e_either = Array.make k 0.0 in
        let e_sq = ref 0.0 in
        for round = 1 to 6 do
          let resp, sq = next round e_taken e_either !e_sq in
          Tomo.Paths.replay_accumulate rp ~threshold ~resp ~sq ~taken ~either;
          Array.iteri
            (fun p path ->
              let s = sig_of.(p) in
              let r = resp.(s) in
              if r > threshold then begin
                Array.iteri
                  (fun j c ->
                    if c > 0 then begin
                      e_taken.(j) <- e_taken.(j) +. (r *. float_of_int c);
                      e_either.(j) <- e_either.(j) +. (r *. float_of_int c)
                    end)
                  path.Tomo.Paths.taken;
                Array.iteri
                  (fun j c ->
                    if c > 0 then e_either.(j) <- e_either.(j) +. (r *. float_of_int c))
                  path.Tomo.Paths.nottaken;
                e_sq := !e_sq +. sq.(s)
              end)
            raw
        done;
        let name = Printf.sprintf "%s %s" name label in
        check_theta (name ^ " taken") e_taken taken;
        check_theta (name ^ " either") e_either either;
        check_float (name ^ " sq") !e_sq sums.Tomo.Paths.sq)
      [
        ("all live", 0.0, fixed (uniform 1e-3 1.001) (uniform 0.0 3.0));
        ( "one live",
          0.0,
          fixed (Array.init ns (fun s -> if s = ns / 2 then 0.7 else 0.0)) (uniform 0.0 3.0) );
        ( "threshold",
          1e-12,
          fixed
            (Array.init ns (fun s -> if s mod 3 = 0 then 1e-13 else Stats.Rng.float rng 1.0))
            (uniform 0.0 3.0) );
        ("wide", 0.0, fixed (wide ()) (wide ()));
        ( "wide, some σ terms zero",
          1e-30,
          fixed
            (Array.mapi (fun s r -> if s mod 5 = 0 then 0.5 else r) (wide ()))
            (Array.mapi (fun s x -> if s mod 2 = 0 then 0.0 else x) (wide ())) );
        ("edge", 0.0, edge);
        ("tie", 0.0, tie);
      ];
    !ties
  in
  let _, paths, _ = Lazy.force ctp_jitter8 in
  if check_set "ctp_rx_task" paths = 0 then
    Alcotest.fail "ctp_rx_task: no signature could carry an exact tie";
  List.iter
    (fun (seed, depth, stmts) ->
      let paths, _ = generated_case seed depth stmts in
      ignore (check_set (Printf.sprintf "gen seed=%d" seed) paths))
    [ (1, 3, 2); (2, 4, 4) ]

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
      let f = Tomo.Paths.flat paths in
      let ns = Tomo.Paths.num_signatures paths in
      let sig_of = Tomo.Paths.signature_of_path paths in
      let name = Printf.sprintf "gen seed=%d" seed in
      let row off idx cnt s =
        let n = off.(s + 1) - off.(s) in
        (Array.sub idx off.(s) n, Array.sub cnt off.(s) n)
      in
      let taken s = row f.Tomo.Paths.taken_off f.Tomo.Paths.taken_idx f.Tomo.Paths.taken_cnt s in
      let nottaken s =
        row f.Tomo.Paths.nottaken_off f.Tomo.Paths.nottaken_idx f.Tomo.Paths.nottaken_cnt s
      in
      (* Weights partition the raw set. *)
      Alcotest.(check (float 0.0)) (name ^ " weights sum to np")
        (float_of_int (Array.length pth))
        (Array.fold_left ( +. ) 0.0 f.Tomo.Paths.sig_weight);
      (* Every raw path matches its signature exactly. *)
      Array.iteri
        (fun p s ->
          let path = pth.(p) in
          if path.Tomo.Paths.cost <> f.Tomo.Paths.sig_cost.(s) then
            Alcotest.failf "%s: path %d cost mismatch" name p;
          let dense_of_sparse (idx, cnt) =
            let out = Array.make (Array.length path.Tomo.Paths.taken) 0 in
            Array.iteri (fun i j -> out.(j) <- int_of_float cnt.(i)) idx;
            out
          in
          if path.Tomo.Paths.taken <> dense_of_sparse (taken s) then
            Alcotest.failf "%s: path %d taken counts mismatch" name p;
          if path.Tomo.Paths.nottaken <> dense_of_sparse (nottaken s) then
            Alcotest.failf "%s: path %d nottaken counts mismatch" name p)
        sig_of;
      (* Distinct signatures really are distinct. *)
      let keys = Hashtbl.create 64 in
      for s = 0 to ns - 1 do
        let key = (f.Tomo.Paths.sig_cost.(s), taken s, nottaken s) in
        if Hashtbl.mem keys key then Alcotest.failf "%s: duplicate signature" name;
        Hashtbl.add keys key ()
      done;
      (* Merged prior mass equals the raw prior mass (weights are exact
         integer multiplicities of bit-identical terms). *)
      let theta =
        Array.map (fun _ -> 0.3) (Tomo.Model.uniform_theta (Tomo.Paths.model paths))
      in
      let raw_mass = Tomo.Paths.prior_mass paths ~theta in
      let lp = Tomo.Paths.log_prior paths ~theta in
      let merged_mass = ref 0.0 in
      for s = 0 to ns - 1 do
        (* Representative raw-path log prior for this signature. *)
        let rep = ref (-1) in
        Array.iteri (fun p s' -> if s' = s && !rep < 0 then rep := p) sig_of;
        merged_mass := !merged_mass +. (f.Tomo.Paths.sig_weight.(s) *. exp lp.(!rep))
      done;
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

(* --- exactness of the underflow skip --- *)

(* Timings at the default config (resolution 1, no jitter) sit exactly on
   path costs, so σ drops to its 0.1 floor.  A timing on the cheapest
   path then sees the dearest path trail it by at least (8 / 0.1)² / 2 =
   3200 in Gaussian log weight, far more than any log-prior difference
   can make up and past the 746 at which the E-step skips a signature
   instead of exponentiating it.  The result must still match the dense
   reference, which exponentiates every path, bit for bit. *)
let test_log_threshold_default_exact () =
  let run = P.profile ~config:P.default_config Workloads.filter in
  let samples = List.assoc "filter_task" run.P.samples in
  let paths = Tomo.Paths.enumerate (P.model_of run "filter_task") in
  let spread = Tomo.Paths.max_cost paths -. Tomo.Paths.min_cost paths in
  if spread < 8.0 then Alcotest.failf "cost spread %g < 8" spread;
  let sigma = P.noise_sigma P.default_config in
  let dense = Tomo.Em.Dense.estimate ~max_iters:15 ~sigma paths ~samples in
  check_float "sigma at its floor" 0.1 dense.Tomo.Em.sigma;
  check_result "filter_task res1" dense (Tomo.Em.estimate ~max_iters:15 ~sigma paths ~samples)

(* The live normalizer sums only the listed signatures' raw paths: with
   every other weight +0.0 it must give the bits of the full raw-order
   sum, whatever order the list is in and however the listed
   signatures' raw paths interleave. *)
let test_live_normalizer () =
  let check_set name paths =
    let ns = Tomo.Paths.num_signatures paths in
    let sig_of = Tomo.Paths.signature_of_path paths in
    let rp = Tomo.Paths.replay paths in
    let rng = Stats.Rng.create 5 in
    List.iter
      (fun n_live ->
        for _ = 1 to 20 do
          let live = Array.init ns Fun.id in
          for i = ns - 1 downto 1 do
            let j = Stats.Rng.int rng (i + 1) in
            let x = live.(i) in
            live.(i) <- live.(j);
            live.(j) <- x
          done;
          let n = Stdlib.min n_live ns in
          let w = Array.make ns 0.0 in
          for i = 0 to n - 1 do
            w.(live.(i)) <- 10.0 ** -.Stats.Rng.float rng 20.0
          done;
          let dense = Array.fold_left (fun z s -> z +. w.(s)) 0.0 sig_of in
          let norm = [| nan |] in
          Tomo.Paths.replay_normalizers rp w norm;
          check_float (name ^ " full") dense norm.(0);
          check_float (name ^ " live") dense (Tomo.Paths.replay_live_normalizer rp w ~live n)
        done)
      [ 1; 2; 5; ns ]
  in
  let _, ctp, _ = Lazy.force ctp_jitter4 in
  check_set "ctp_rx_task" ctp;
  let run = P.profile ~config:P.default_config Workloads.filter in
  check_set "filter_task" (Tomo.Paths.enumerate (P.model_of run "filter_task"))

(* --- signature-space Online vs. the per-path reference --- *)

(* Feed the same stream to the signature kernel and to {!Tomo.Online.Dense}
   and compare after every single observation: a rounding difference in
   one step would be carried, and usually amplified, by the next. *)
let check_online_stream name ~decay ~sigma paths samples =
  match Fuzz.Oracles.online_mismatch ~decay ~sigma paths samples with
  | Some msg -> Alcotest.failf "%s decay=%g sigma=%g: %s" name decay sigma msg
  | None -> ()

(* The first [n] real timings, then values no path explains — far below,
   far above and between every cost — where all but the nearest signature
   fall under the responsibility cut, then the timings again. *)
let with_far_values paths samples ~n =
  let samples = Array.sub samples 0 (Stdlib.min n (Array.length samples)) in
  let lo = Tomo.Paths.min_cost paths and hi = Tomo.Paths.max_cost paths in
  let far = [| lo -. 5000.0; hi +. 5000.0; (lo +. hi) /. 2.0 +. 0.5; lo -. 3.0; hi +. 40.0 |] in
  Array.concat [ samples; far; samples ]

let online_stream w proc ~n =
  let run = P.profile ~config:P.default_config w in
  let paths = Tomo.Paths.enumerate (P.model_of run proc) in
  (paths, with_far_values paths (List.assoc proc run.P.samples) ~n)

(* The σ a fleet runs Online at on a jitter-free timer: so sharp that
   most observations reach one or two signatures. *)
let sharp_sigma = Tomo.Em.default_sigma ~resolution:1 ~jitter:0.0

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
            [ sharp_sigma; 1.0; 6.0 ])
        [ 0.999; 1.0 ])
    [
      (Workloads.ctp, "ctp_rx_task", 60, Some (4096, 176));
      (Workloads.filter, "filter_task", 400, None);
    ]

(* Jittered ctp_rx_task streams, σ from the timer model.  At jitter 4
   most observations leave only a few signatures live and the replay
   skips most of the rest as no-ops; at jitter 8 an observation's reach
   spans most of the path set, so Online weighs every signature. *)
let test_online_jittered () =
  List.iter
    (fun (name, jittered) ->
      let config, paths, samples = Lazy.force jittered in
      check_online_stream name ~decay:0.999 ~sigma:(P.noise_sigma config) paths
        (with_far_values paths samples ~n:600))
    [ ("ctp_rx_task jit4", ctp_jitter4); ("ctp_rx_task jit8", ctp_jitter8) ]

let suite =
  golden_tests @ robust_golden_tests
  @ [
      Alcotest.test_case "ctp jitter 8: optimized = dense reference" `Slow
        (dense_case ctp_jitter8 ~values:153);
      Alcotest.test_case "ctp jitter 4: optimized = dense reference" `Slow
        (dense_case ctp_jitter4 ~values:97);
      Alcotest.test_case "EM iteration allocation is O(params)" `Quick
        (test_em_allocation ctp_jitter8);
      Alcotest.test_case "EM allocation is O(params) at jitter 4" `Quick
        (test_em_allocation ctp_jitter4);
      Alcotest.test_case "skips: a skipped term changes no bit" `Quick test_skips;
      Alcotest.test_case "replay strategies = dense per-path loop" `Quick
        test_replay_strategies;
      Alcotest.test_case "generated programs: optimized = dense reference" `Slow
        test_generated_equivalence;
      Alcotest.test_case "signature merge invariants" `Quick
        test_signature_merge_properties;
      Alcotest.test_case "record_trajectory switch" `Quick test_record_trajectory;
      Alcotest.test_case "default log threshold is exact" `Quick
        test_log_threshold_default_exact;
      Alcotest.test_case "live normalizer = raw-order sum" `Quick test_live_normalizer;
      Alcotest.test_case "online: signatures = per-path reference" `Quick
        test_online_signature_exact;
      Alcotest.test_case "online: jittered ctp = per-path reference" `Quick
        test_online_jittered;
    ]
