(* Par.Pool and the session engine: scheduling must never be
   observable.  Ordering, exception choice, nesting and memoization are
   all pinned down here; the Slow cases check the headline property —
   the pipeline's output is bit-identical at any domain count. *)

module P = Codetomo.Pipeline
module Pool = Par.Pool

let config = { P.default_config with P.horizon = Some 600_000 }

let test_map_preserves_order () =
  Pool.with_pool ~domains:4 (fun pool ->
      let input = Array.init 500 (fun i -> i) in
      let out = Pool.map pool (fun i -> i * i) input in
      Alcotest.(check (array int)) "squares in input order"
        (Array.map (fun i -> i * i) input)
        out)

let test_map_list_preserves_order () =
  Pool.with_pool ~domains:3 (fun pool ->
      let input = List.init 101 (fun i -> string_of_int i) in
      Alcotest.(check (list string)) "identity map keeps order" input
        (Pool.map_list pool (fun s -> s) input))

let test_empty_and_singleton () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map_list pool (fun x -> x) []);
      Alcotest.(check (list int)) "singleton" [ 9 ]
        (Pool.map_list pool (fun x -> x * x) [ 3 ]))

let test_lowest_index_exception () =
  (* Several tasks fail; the re-raised exception must be the one from
     the lowest index, independent of which domain hit it first. *)
  Pool.with_pool ~domains:4 (fun pool ->
      let attempt () =
        ignore
          (Pool.map_list pool
             (fun i -> if i mod 7 = 3 then failwith (Printf.sprintf "boom%d" i) else i)
             (List.init 64 (fun i -> i)))
      in
      Alcotest.check_raises "first failing index wins" (Failure "boom3") attempt;
      (* The pool must survive a failed round. *)
      Alcotest.(check (list int)) "pool usable after exception"
        [ 0; 2; 4 ]
        (Pool.map_list pool (fun i -> 2 * i) [ 0; 1; 2 ]))

let test_nested_maps () =
  (* An inner map issued from a worker task falls back to the serial
     path instead of deadlocking, and the numbers come out the same. *)
  Pool.with_pool ~domains:4 (fun pool ->
      let expected =
        List.init 10 (fun i -> List.init 10 (fun j -> (i * 10) + j))
      in
      let got =
        Pool.map_list pool
          (fun i -> Pool.map_list pool (fun j -> (i * 10) + j) (List.init 10 Fun.id))
          (List.init 10 Fun.id)
      in
      Alcotest.(check (list (list int))) "nested map matches serial" expected got)

let test_pool_reuse () =
  Pool.with_pool ~domains:2 (fun pool ->
      for round = 1 to 20 do
        let n = 17 * round in
        let out = Pool.map_list pool (fun i -> i + round) (List.init n Fun.id) in
        Alcotest.(check int)
          (Printf.sprintf "round %d sum" round)
          (n * (n - 1) / 2 + (n * round))
          (List.fold_left ( + ) 0 out)
      done)

let test_domains_env_sizing () =
  Unix.putenv "CODETOMO_DOMAINS" "3";
  Pool.with_pool (fun pool ->
      Alcotest.(check int) "CODETOMO_DOMAINS honoured" 3 (Pool.domains pool));
  Unix.putenv "CODETOMO_DOMAINS" "0";
  Pool.with_pool (fun pool ->
      Alcotest.(check bool) "invalid value falls back" true (Pool.domains pool >= 1));
  Unix.putenv "CODETOMO_DOMAINS" "";
  Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "explicit argument wins" 1 (Pool.domains pool))

(* --- determinism of the pipeline under parallelism --- *)

let run = lazy (P.profile ~config Workloads.filter)

let check_variants_equal msg a b =
  List.iter2
    (fun (x : P.variant) (y : P.variant) ->
      Alcotest.(check string) (msg ^ " label") x.P.label y.P.label;
      Alcotest.(check int) (msg ^ " taken") x.P.taken_transfers y.P.taken_transfers;
      Alcotest.(check int) (msg ^ " busy") x.P.busy_cycles y.P.busy_cycles;
      Alcotest.(check int) (msg ^ " flash") x.P.flash_words y.P.flash_words;
      Alcotest.(check (float 0.0)) (msg ^ " rate") x.P.taken_rate y.P.taken_rate)
    a b

let test_compare_layouts_domain_invariant () =
  let run = Lazy.force run in
  let serial =
    Pool.with_pool ~domains:1 (fun p -> P.compare_layouts ~ctx:(P.Ctx.of_pool p) run)
  in
  let parallel =
    Pool.with_pool ~domains:4 (fun p -> P.compare_layouts ~ctx:(P.Ctx.of_pool p) run)
  in
  check_variants_equal "domains=1 vs domains=4" serial parallel

let test_estimate_domain_invariant () =
  let run = Lazy.force run in
  let serial =
    Pool.with_pool ~domains:1 (fun p -> P.estimate ~ctx:(P.Ctx.of_pool p) run)
  in
  let parallel =
    Pool.with_pool ~domains:4 (fun p -> P.estimate ~ctx:(P.Ctx.of_pool p) run)
  in
  List.iter2
    (fun (a : P.estimation) (b : P.estimation) ->
      Alcotest.(check string) "proc" a.P.proc b.P.proc;
      Alcotest.(check (float 0.0)) "mae identical" a.P.mae b.P.mae;
      Alcotest.(check (array (float 0.0))) "theta identical"
        a.P.estimate.Tomo.Estimator.theta b.P.estimate.Tomo.Estimator.theta)
    serial parallel

let test_max_samples_prefix () =
  (* max_samples must behave exactly as if profiling had stopped after
     that many windows: estimating with [max_samples = Some n] equals
     estimating a run whose sample arrays are the chronological first-n
     prefixes. *)
  let run = Lazy.force run in
  let n = 40 in
  let truncated =
    {
      run with
      P.samples =
        List.map
          (fun (proc, a) -> (proc, Array.sub a 0 (min n (Array.length a))))
          run.P.samples;
    }
  in
  List.iter2
    (fun (a : P.estimation) (b : P.estimation) ->
      Alcotest.(check int) "sample_count" b.P.sample_count a.P.sample_count;
      Alcotest.(check (array (float 0.0))) "theta from first-n prefix"
        b.P.estimate.Tomo.Estimator.theta a.P.estimate.Tomo.Estimator.theta)
    (P.estimate ~opts:{ P.default_opts with P.max_samples = Some n } run)
    (P.estimate truncated)

(* --- session memoization --- *)

let test_session_memoizes () =
  let s = Codetomo.Session.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Codetomo.Session.close s)
    (fun () ->
      let w = Workloads.blink in
      let a = Codetomo.Session.profile s ~config w in
      let b = Codetomo.Session.profile s ~config w in
      Alcotest.(check bool) "profile cached (physical equality)" true (a == b);
      let e1 = Codetomo.Session.estimate s ~config w in
      let e2 = Codetomo.Session.estimate s ~config w in
      Alcotest.(check bool) "estimate cached" true (e1 == e2);
      let other = Codetomo.Session.profile s ~config:P.default_config w in
      Alcotest.(check bool) "different config is a different entry" true
        (other != a);
      Codetomo.Session.clear s;
      let c = Codetomo.Session.profile s ~config w in
      Alcotest.(check bool) "clear drops entries" true (c != a))

(* The estimate memo is keyed by the options value itself: equal
   records share an entry however they were built, any differing knob
   gets its own, and the watermarked estimate never aliases the plain
   one. *)
let test_session_opts_key () =
  let s = Codetomo.Session.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Codetomo.Session.close s)
    (fun () ->
      let w = Workloads.blink in
      let est opts = Codetomo.Session.estimate s ~opts ~config w in
      let robust () =
        {
          P.default_opts with
          P.sanitize = true;
          robust = true;
          min_samples = 8;
        }
      in
      Alcotest.(check bool) "equal opts built separately share an entry" true
        (est (robust ()) == est (robust ()));
      Alcotest.(check bool) "omitted opts = default_opts" true
        (Codetomo.Session.estimate s ~config w
        == est { P.default_opts with P.min_samples = 1 });
      let floor = est { P.default_opts with P.min_samples = max_int } in
      Alcotest.(check bool) "a different floor is a different entry" true
        (est P.default_opts != floor);
      Alcotest.(check bool) "the other floor's entry is its own" true
        (List.for_all (fun e -> Tomo.Health.is_rejected e.P.health) floor);
      let wm = Codetomo.Session.estimate_watermarked s ~config w in
      Alcotest.(check bool) "watermarked cached" true
        (wm == Codetomo.Session.estimate_watermarked s ~config w);
      Alcotest.(check bool) "watermarked never shares the plain entry" true
        (fst wm != est P.default_opts))

(* The session places from its memoized estimates; the layouts are the
   pipeline's, field for field, whether or not the estimate entry was
   filled first. *)
let test_session_compare_layouts () =
  let s = Codetomo.Session.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Codetomo.Session.close s)
    (fun () ->
      List.iter
        (fun (w : Workloads.t) ->
          let expected = P.compare_layouts (P.profile ~config w) in
          let cold = Codetomo.Session.compare_layouts s ~config w in
          Alcotest.(check bool) (w.Workloads.name ^ ": session = pipeline") true (cold = expected);
          let opts = { P.default_opts with P.min_samples = max_int } in
          ignore (Codetomo.Session.estimate s ~opts ~config w);
          Alcotest.(check bool)
            (w.Workloads.name ^ ": from a filled estimate entry")
            true
            (Codetomo.Session.compare_layouts s ~opts ~config w
            = P.compare_layouts ~opts (P.profile ~config w)))
        [ Workloads.filter; Workloads.sense ])

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
    Alcotest.test_case "map_list preserves order" `Quick test_map_list_preserves_order;
    Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
    Alcotest.test_case "lowest-index exception" `Quick test_lowest_index_exception;
    Alcotest.test_case "nested maps" `Quick test_nested_maps;
    Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
    Alcotest.test_case "CODETOMO_DOMAINS sizing" `Quick test_domains_env_sizing;
    Alcotest.test_case "compare_layouts domain-invariant" `Slow
      test_compare_layouts_domain_invariant;
    Alcotest.test_case "estimate domain-invariant" `Slow test_estimate_domain_invariant;
    Alcotest.test_case "max_samples keeps the prefix" `Slow test_max_samples_prefix;
    Alcotest.test_case "session memoizes stages" `Slow test_session_memoizes;
    Alcotest.test_case "session memo key is the opts value" `Slow test_session_opts_key;
    Alcotest.test_case "session compare_layouts = pipeline" `Slow test_session_compare_layouts;
  ]
