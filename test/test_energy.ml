(* Mote_os.Energy and Layout.Algorithms.anneal, plus the static/dynamic
   consistency check that ties Eval's predictions to the machine. *)

module Energy = Mote_os.Energy
module Cfg = Cfgir.Cfg
module Freq = Cfgir.Freq

let feq ?(tol = 1e-9) name a b =
  Alcotest.(check bool) (Printf.sprintf "%s: %f vs %f" name a b) true (abs_float (a -. b) < tol)

let test_energy_arithmetic () =
  let r = Energy.of_parts ~busy_cycles:1_000_000 ~idle_cycles:0 ~tx_words:0 () in
  (* 1e6 cycles * 5.4 nJ = 5.4 mJ. *)
  feq "active" 5.4 r.Energy.active_mj;
  feq "total" 5.4 r.Energy.total_mj;
  let r2 = Energy.of_parts ~busy_cycles:0 ~idle_cycles:0 ~tx_words:500 () in
  feq "radio" 1.0 r2.Energy.radio_mj

let test_energy_sleep_is_cheap () =
  let active = Energy.of_parts ~busy_cycles:1000 ~idle_cycles:0 ~tx_words:0 () in
  let asleep = Energy.of_parts ~busy_cycles:0 ~idle_cycles:1000 ~tx_words:0 () in
  Alcotest.(check bool) "sleep ~350x cheaper" true
    (active.Energy.total_mj > 300.0 *. asleep.Energy.total_mj)

let test_energy_validation () =
  Alcotest.(check bool) "negative rejected" true
    (match Energy.of_parts ~busy_cycles:(-1) ~idle_cycles:0 ~tx_words:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_lifetime () =
  (* A node awake 10% of the time at 1 MHz. *)
  let r = Energy.of_parts ~busy_cycles:100_000 ~idle_cycles:900_000 ~tx_words:0 () in
  let days = Energy.lifetime_days r ~horizon_cycles:1_000_000 ~cycles_per_second:1_000_000 in
  (* Average power ~0.554 mW; 27000 J battery -> ~560 days. *)
  Alcotest.(check bool) (Printf.sprintf "plausible lifetime (%f)" days) true
    (days > 400.0 && days < 700.0);
  (* Lower duty cycle must live longer. *)
  let r2 = Energy.of_parts ~busy_cycles:10_000 ~idle_cycles:990_000 ~tx_words:0 () in
  let days2 = Energy.lifetime_days r2 ~horizon_cycles:1_000_000 ~cycles_per_second:1_000_000 in
  Alcotest.(check bool) "less duty, more life" true (days2 > days)

(* --- anneal --- *)

let big_branchy_freq () =
  (* ctp's rx task: 14+ blocks, too big for exhaustive search. *)
  let run = Codetomo.Pipeline.profile ~config:{ Codetomo.Pipeline.default_config with horizon = Some 400_000 } Workloads.ctp in
  List.assoc "ctp_rx_task" run.Codetomo.Pipeline.oracle_freqs

let test_anneal_validity_and_quality () =
  let freq = big_branchy_freq () in
  let annealed = Layout.Algorithms.anneal ~seed:5 freq in
  Layout.Placement.validate (Freq.cfg freq) annealed;
  let ph = Layout.Eval.taken_transfers freq (Layout.Algorithms.pettis_hansen freq) in
  let an = Layout.Eval.taken_transfers freq annealed in
  Alcotest.(check bool)
    (Printf.sprintf "anneal (%.0f) <= pettis-hansen (%.0f)" an ph)
    true (an <= ph +. 1e-9)

let test_anneal_deterministic () =
  let freq = big_branchy_freq () in
  let a = Layout.Algorithms.anneal ~seed:9 freq in
  let b = Layout.Algorithms.anneal ~seed:9 freq in
  Alcotest.(check bool) "same seed, same placement" true (a = b)

let test_anneal_matches_optimal_small () =
  (* On a tiny CFG annealing should find the optimum. *)
  let p =
    Mote_isa.Asm.assemble
      [
        Mote_isa.Asm.Proc "f"; Mote_isa.Asm.cmpi 0 0;
        Mote_isa.Asm.br Mote_isa.Isa.Eq "a2"; Mote_isa.Asm.movi 1 1;
        Mote_isa.Asm.jmp "j"; Mote_isa.Asm.Label "a2"; Mote_isa.Asm.movi 1 2;
        Mote_isa.Asm.Label "j"; Mote_isa.Asm.ret;
      ]
  in
  let cfg = Cfg.of_proc_name p "f" in
  let freq = Freq.create cfg ~invocations:100.0 in
  Freq.bump freq ~src:0 ~dst:2 ~kind:Cfg.K_taken 80.0;
  Freq.bump freq ~src:0 ~dst:1 ~kind:Cfg.K_fall 20.0;
  Freq.bump freq ~src:1 ~dst:3 ~kind:Cfg.K_jump 20.0;
  Freq.bump freq ~src:2 ~dst:3 ~kind:Cfg.K_fall 80.0;
  let best = Layout.Eval.taken_transfers freq (Layout.Algorithms.optimal freq) in
  let an = Layout.Eval.taken_transfers freq (Layout.Algorithms.anneal freq) in
  feq "matches optimum" best an

(* --- static prediction matches dynamic execution --- *)

let test_static_eval_matches_dynamic () =
  (* For a deterministic input sequence, Eval's predicted stall count on
     the oracle profile must equal the machine's measured count, for any
     placement.  This pins the whole cost model together. *)
  let open Mote_lang.Ast.Dsl in
  let program =
    {
      Mote_lang.Ast.globals = [ ("acc", 0) ];
      arrays = [];
      procs =
        [
          proc "task" ~params:[] ~locals:[ "x" ]
            [
              set "x" (sensor 0);
              if_ (v "x" >: i 500)
                [ set "acc" (v "acc" +: v "x") ]
                [ set "acc" (v "acc" +: i 1) ];
              while_ (v "x" >: i 700) [ set "x" (v "x" -: i 250) ];
            ];
        ];
    }
  in
  let c = Mote_lang.Compile.compile program in
  let original = c.Mote_lang.Compile.program in
  let invocations = 200 in
  let drive binary =
    let devices = Mote_machine.Devices.create () in
    let seq = ref 0 in
    Mote_machine.Devices.set_sensor devices (fun _ ->
        incr seq;
        !seq * 311 mod 1024);
    let m = Mote_machine.Machine.create ~program:binary ~devices () in
    ignore (Mote_machine.Machine.run_proc m Mote_lang.Compile.init_proc_name);
    m
  in
  (* Collect the oracle profile on the natural binary. *)
  let m = drive original in
  let oracle = Profilekit.Oracle.attach m in
  for _ = 1 to invocations do
    ignore (Mote_machine.Machine.run_proc m "task")
  done;
  let freq =
    Profilekit.Oracle.freq oracle ~proc:"task" ~invocations:(float_of_int invocations)
  in
  let cfg = Freq.cfg freq in
  let n = Cfg.num_blocks cfg in
  let rng = Stats.Rng.create 77 in
  for _ = 1 to 6 do
    let rest = Array.init (n - 1) (fun i -> i + 1) in
    Stats.Rng.shuffle rng rest;
    let placement = Array.append [| 0 |] rest in
    let predicted = Layout.Eval.taken_transfers freq placement in
    let rewritten = Layout.Rewrite.program original ~placements:[ ("task", placement) ] in
    let m2 = drive rewritten in
    for _ = 1 to invocations do
      ignore (Mote_machine.Machine.run_proc m2 "task")
    done;
    let s = Mote_machine.Machine.stats m2 in
    let measured = s.Mote_machine.Machine.taken_cond_branches + s.Mote_machine.Machine.unconditional_transfers in
    Alcotest.(check int)
      (Format.asprintf "exact static prediction for %a" Layout.Placement.pp placement)
      (int_of_float predicted) measured
  done

let suite =
  [
    Alcotest.test_case "energy arithmetic" `Quick test_energy_arithmetic;
    Alcotest.test_case "sleep is cheap" `Quick test_energy_sleep_is_cheap;
    Alcotest.test_case "energy validation" `Quick test_energy_validation;
    Alcotest.test_case "lifetime" `Quick test_lifetime;
    Alcotest.test_case "anneal validity" `Slow test_anneal_validity_and_quality;
    Alcotest.test_case "anneal deterministic" `Slow test_anneal_deterministic;
    Alcotest.test_case "anneal matches optimal" `Quick test_anneal_matches_optimal_small;
    Alcotest.test_case "static = dynamic" `Quick test_static_eval_matches_dynamic;
  ]
