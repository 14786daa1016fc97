(* Profilekit: probes, edge counters, oracle, flow reconstruction,
   overhead accounting. *)

open Mote_lang.Ast.Dsl
module Compile = Mote_lang.Compile
module Asm = Mote_isa.Asm
module Isa = Mote_isa.Isa
module Program = Mote_isa.Program
module Machine = Mote_machine.Machine
module Devices = Mote_machine.Devices
module Cfg = Cfgir.Cfg
module Freq = Cfgir.Freq
module Probes = Profilekit.Probes
module Edges = Profilekit.Edges
module Oracle = Profilekit.Oracle

(* A procedure whose branch is steered by a sensor value we control. *)
let steered_program =
  {
    Mote_lang.Ast.globals = [ ("hits", 0); ("miss", 0) ];
    arrays = [];
    procs =
      [
        proc "task" ~params:[] ~locals:[ "x" ]
          [
            set "x" (sensor 0);
            if_ (v "x" >: i 100)
              [ set "hits" (v "hits" +: i 1); set "hits" (v "hits" +: i 0) ]
              [ set "miss" (v "miss" +: i 1) ];
          ];
      ];
  }

let caller_callee_program =
  {
    Mote_lang.Ast.globals = [ ("out", 0) ];
    arrays = [];
    procs =
      [
        proc "leaf" ~params:[ "x" ] ~locals:[] [ return (v "x" +: i 1) ];
        proc "top" ~params:[] ~locals:[] [ set "out" (fn "leaf" [ i 4 ]) ];
      ];
  }

let instrumented_machine ?(devices = Devices.create ()) program =
  let c = Compile.compile program in
  let inst = Asm.assemble (Probes.instrument c.Compile.items) in
  let m = Machine.create ~program:inst ~devices () in
  ignore (Machine.run_proc m Compile.init_proc_name);
  (c, inst, m)

let test_instrument_adds_probes () =
  let c = Compile.compile steered_program in
  let inst = Asm.assemble (Probes.instrument c.Compile.items) in
  let count_probes p =
    Array.fold_left
      (fun acc ins -> match ins with Isa.Out (Isa.P_probe, _) -> acc + 1 | _ -> acc)
      0 (Program.code p)
  in
  Alcotest.(check int) "no probes originally" 0 (count_probes c.Compile.program);
  (* task has one entry + one (implicit) ret probe. *)
  Alcotest.(check int) "two probe sites" 2 (count_probes inst)

let test_init_not_instrumented () =
  let c = Compile.compile steered_program in
  let inst = Asm.assemble (Probes.instrument c.Compile.items) in
  let init = Option.get (Program.find_proc inst Compile.init_proc_name) in
  for addr = init.Program.entry to init.Program.finish - 1 do
    match Program.instr inst addr with
    | Isa.Out (Isa.P_probe, _) -> Alcotest.fail "__init must not carry probes"
    | _ -> ()
  done

let test_sample_counts_match_invocations () =
  let devices = Devices.create () in
  Devices.set_sensor devices (fun _ -> 500);
  let (_, inst, m) = instrumented_machine ~devices steered_program in
  for _ = 1 to 25 do
    ignore (Machine.run_proc m "task")
  done;
  let set = Probes.collect ~program:inst ~devices in
  Alcotest.(check int) "25 samples" 25 (Array.length (Probes.samples_for set "task"))

let test_window_matches_analytic_cost () =
  (* Golden check tying probes, CFG costs and the model constants together:
     the measured window must equal block costs + penalties - correction,
     exactly, for a deterministic run. *)
  let devices = Devices.create () in
  Devices.set_sensor devices (fun _ -> 500);
  let (_, inst, m) = instrumented_machine ~devices steered_program in
  ignore (Machine.run_proc m "task");
  let set = Probes.collect ~program:inst ~devices in
  let sample = (Probes.samples_for set "task").(0) in
  (* 500 > 100, so the fall path (then-arm) runs: blocks 0 (entry+cond),
     then-arm, join. *)
  let cfg = Cfg.of_proc_name inst "task" in
  let model = Tomo.Model.of_cfg cfg in
  let paths = Tomo.Paths.enumerate model in
  let matching =
    Array.exists (fun p -> p.Tomo.Paths.cost = sample) (Tomo.Paths.paths paths)
  in
  Alcotest.(check bool)
    (Printf.sprintf "sample %.0f equals an analytic path cost" sample)
    true matching

let test_exclusive_time_subtracts_callee () =
  let devices = Devices.create () in
  let (_, inst, m) = instrumented_machine ~devices caller_callee_program in
  for _ = 1 to 10 do
    ignore (Machine.run_proc m "top")
  done;
  let set = Probes.collect ~program:inst ~devices in
  let top = Probes.samples_for set "top" in
  let leaf = Probes.samples_for set "leaf" in
  Alcotest.(check int) "top samples" 10 (Array.length top);
  Alcotest.(check int) "leaf samples" 10 (Array.length leaf);
  (* Deterministic program: exclusive times are constant, and the model of
     `top` (which includes the call residual) must predict them exactly. *)
  Array.iter (fun s -> Alcotest.(check (float 0.0)) "top constant" top.(0) s) top;
  let model = Tomo.Model.of_cfg (Cfg.of_proc_name inst "top") in
  let predicted = Tomo.Model.mean_time model ~theta:[||] in
  Alcotest.(check (float 1e-6)) "exclusive time matches model" predicted top.(0)

let test_unbalanced_log () =
  let devices = Devices.create () in
  Devices.probe devices ~pc:0 ~cycles:0 ~value:0;
  let c = Compile.compile steered_program in
  let inst = Asm.assemble (Probes.instrument c.Compile.items) in
  Alcotest.(check bool) "stray probe detected" true
    (match Probes.collect ~program:inst ~devices with
    | _ -> false
    | exception Probes.Unbalanced _ -> true)

let test_probe_constants () =
  Alcotest.(check int) "per-invocation cycles" 8 Probes.probe_cycles_per_invocation;
  Alcotest.(check int) "window correction" 6 Probes.window_correction;
  Alcotest.(check int) "call residual" 10 Probes.call_residual

(* --- edge instrumentation --- *)

let run_with_edges ?(n = 200) program task sensor_value =
  let c = Compile.compile program in
  let inst = Asm.assemble (Edges.instrument c.Compile.items) in
  let devices = Devices.create () in
  Devices.set_sensor devices (fun _ -> sensor_value ());
  let m = Machine.create ~program:inst ~devices () in
  ignore (Machine.run_proc m Compile.init_proc_name);
  for _ = 1 to n do
    ignore (Machine.run_proc m task)
  done;
  (c, devices, m)

let test_edge_counts_match_oracle () =
  (* Run the instrumented binary and, separately, an oracle-hooked original
     with the same inputs: branch outcome counts must agree exactly. *)
  let seq = ref 0 in
  let sensor () =
    incr seq;
    if !seq mod 3 = 0 then 500 else 50
  in
  let c, _, machine = run_with_edges steered_program "task" sensor in
  let counts = Edges.counts_of_memory ~original:c.Compile.program machine in
  (* Oracle on the original binary with the same deterministic input. *)
  let seq2 = ref 0 in
  let d2 = Devices.create () in
  Devices.set_sensor d2 (fun _ ->
      incr seq2;
      if !seq2 mod 3 = 0 then 500 else 50);
  let m2 = Machine.create ~program:c.Compile.program ~devices:d2 () in
  ignore (Machine.run_proc m2 Compile.init_proc_name);
  let oracle = Oracle.attach m2 in
  for _ = 1 to 200 do
    ignore (Machine.run_proc m2 "task")
  done;
  let oracle_counts = Oracle.counts oracle ~proc:"task" in
  let counter_counts = List.assoc "task" counts in
  List.iter2
    (fun (id_a, (tk_a, fl_a)) (id_b, (tk_b, fl_b)) ->
      Alcotest.(check int) "block id" id_a id_b;
      Alcotest.(check int) "taken" tk_a tk_b;
      Alcotest.(check int) "fall" fl_a fl_b)
    counter_counts oracle_counts

let test_edge_instrumentation_preserves_semantics () =
  let c = Compile.compile steered_program in
  let inst = Asm.assemble (Edges.instrument c.Compile.items) in
  let run p =
    let devices = Devices.create () in
    Devices.set_sensor devices (fun _ -> 500);
    let m = Machine.create ~program:p ~devices () in
    ignore (Machine.run_proc m Compile.init_proc_name);
    for _ = 1 to 7 do
      ignore (Machine.run_proc m "task")
    done;
    Machine.read_mem m (Compile.var_address c ~proc:"task" "hits")
  in
  Alcotest.(check int) "same result" (run c.Compile.program) (run inst)

let test_num_counters () =
  let c = Compile.compile steered_program in
  (* One conditional branch -> 2 counters. *)
  Alcotest.(check int) "counters" 2 (Edges.num_counters c.Compile.program)

let test_thetas_of_counters () =
  let seq = ref 0 in
  let sensor () =
    incr seq;
    if !seq mod 4 = 0 then 500 else 50
  in
  let c, _, machine = run_with_edges ~n:400 steered_program "task" sensor in
  let counts = Edges.counts_of_memory ~original:c.Compile.program machine in
  match List.assoc "task" counts with
  | [ (_, (taken, fall)) ] ->
      (* Taken = else branch = (x <= 100) = 3/4 of runs. *)
      Alcotest.(check (pair int int)) "taken, fall" (300, 100) (taken, fall)
  | _ -> Alcotest.fail "expected one branch"

(* --- oracle --- *)

let test_oracle_thetas () =
  let c = Compile.compile steered_program in
  let devices = Devices.create () in
  let seq = ref 0 in
  Devices.set_sensor devices (fun _ ->
      incr seq;
      if !seq mod 2 = 0 then 500 else 50);
  let m = Machine.create ~program:c.Compile.program ~devices () in
  ignore (Machine.run_proc m Compile.init_proc_name);
  let oracle = Oracle.attach m in
  for _ = 1 to 100 do
    ignore (Machine.run_proc m "task")
  done;
  Alcotest.(check int) "total branches observed" 100 (Oracle.total_branches oracle);
  (match Oracle.thetas oracle ~proc:"task" with
  | [ (_, p) ] -> Alcotest.(check (float 1e-9)) "exact ratio" 0.5 p
  | _ -> Alcotest.fail "one branch expected");
  Oracle.detach oracle;
  ignore (Machine.run_proc m "task");
  Alcotest.(check int) "detached stops counting" 100 (Oracle.total_branches oracle)

let test_oracle_freq_conservation () =
  let c = Compile.compile steered_program in
  let devices = Devices.create () in
  Devices.set_sensor devices (fun _ -> 500);
  let m = Machine.create ~program:c.Compile.program ~devices () in
  ignore (Machine.run_proc m Compile.init_proc_name);
  let oracle = Oracle.attach m in
  for _ = 1 to 50 do
    ignore (Machine.run_proc m "task")
  done;
  let freq = Oracle.freq oracle ~proc:"task" ~invocations:50.0 in
  let cfg = Freq.cfg freq in
  let visits = Freq.block_visits freq in
  (* Flow conservation: every block's visits = outflow. *)
  for id = 0 to Cfg.num_blocks cfg - 1 do
    let outflow =
      List.fold_left
        (fun acc (dst, kind) -> acc +. Freq.get freq ~src:id ~dst ~kind)
        0.0 (Cfg.successors cfg id)
    in
    match (Cfg.block cfg id).Cfg.term with
    | Cfg.T_ret | Cfg.T_halt -> ()
    | _ -> Alcotest.(check (float 1e-6)) (Printf.sprintf "conservation B%d" id) visits.(id) outflow
  done

(* --- flow reconstruction --- *)

let test_flowcount_known () =
  (* Diamond with branch counts 30 taken / 70 fall over 100 invocations. *)
  let p =
    Asm.assemble
      [
        Asm.Proc "f"; Asm.cmpi 0 0; Asm.br Isa.Eq "arm2"; Asm.movi 1 10; Asm.jmp "join";
        Asm.Label "arm2"; Asm.movi 1 20; Asm.Label "join"; Asm.ret;
      ]
  in
  let cfg = Cfg.of_proc_name p "f" in
  let freq =
    Profilekit.Flowcount.freq_of_branch_counts cfg ~invocations:100.0
      ~counts:[ (0, (30.0, 70.0)) ]
  in
  Alcotest.(check (float 1e-6)) "jump edge carries fall flow" 70.0
    (Freq.get freq ~src:1 ~dst:3 ~kind:Cfg.K_jump);
  Alcotest.(check (float 1e-6)) "fall edge carries taken flow" 30.0
    (Freq.get freq ~src:2 ~dst:3 ~kind:Cfg.K_fall);
  let visits = Freq.block_visits freq in
  Alcotest.(check (float 1e-6)) "join gets everything" 100.0 visits.(3)

(* --- overhead --- *)

let test_overhead_reports () =
  let c = Compile.compile steered_program in
  let base = c.Compile.program in
  let probes = Asm.assemble (Probes.instrument c.Compile.items) in
  let edges = Asm.assemble (Edges.instrument c.Compile.items) in
  let pr = Profilekit.Overhead.probes_report ~base ~instrumented:probes in
  let er = Profilekit.Overhead.edges_report ~base ~instrumented:edges in
  Alcotest.(check bool) "probes add flash" true (pr.Profilekit.Overhead.flash_overhead_words > 0);
  Alcotest.(check bool) "edges add more flash" true
    (er.Profilekit.Overhead.flash_overhead_words > pr.Profilekit.Overhead.flash_overhead_words);
  Alcotest.(check int) "edge ram = counters" (Edges.num_counters base)
    er.Profilekit.Overhead.ram_words;
  Alcotest.(check bool) "pct consistent" true (pr.Profilekit.Overhead.flash_overhead_pct > 0.0)

let suite =
  [
    Alcotest.test_case "instrument adds probes" `Quick test_instrument_adds_probes;
    Alcotest.test_case "init not instrumented" `Quick test_init_not_instrumented;
    Alcotest.test_case "sample counts" `Quick test_sample_counts_match_invocations;
    Alcotest.test_case "window matches analytic" `Quick test_window_matches_analytic_cost;
    Alcotest.test_case "exclusive time" `Quick test_exclusive_time_subtracts_callee;
    Alcotest.test_case "unbalanced log" `Quick test_unbalanced_log;
    Alcotest.test_case "probe constants" `Quick test_probe_constants;
    Alcotest.test_case "edge counts match oracle" `Quick test_edge_counts_match_oracle;
    Alcotest.test_case "edge semantics preserved" `Quick test_edge_instrumentation_preserves_semantics;
    Alcotest.test_case "num counters" `Quick test_num_counters;
    Alcotest.test_case "thetas of counters" `Quick test_thetas_of_counters;
    Alcotest.test_case "oracle thetas" `Quick test_oracle_thetas;
    Alcotest.test_case "oracle freq conservation" `Quick test_oracle_freq_conservation;
    Alcotest.test_case "flowcount known" `Quick test_flowcount_known;
    Alcotest.test_case "overhead reports" `Quick test_overhead_reports;
  ]

(* --- calibration --- *)

let test_calibration_matches_analytic () =
  let cal = Profilekit.Calibrate.run () in
  Alcotest.(check int) "window correction" Probes.window_correction
    cal.Profilekit.Calibrate.window_correction;
  Alcotest.(check int) "call residual" Probes.call_residual
    cal.Profilekit.Calibrate.call_residual;
  Alcotest.(check bool) "matches" true (Profilekit.Calibrate.matches_analytic cal)

let test_calibration_body_invariant () =
  (* The constants must not depend on the calibration body length. *)
  let a = Profilekit.Calibrate.run ~leaf_body_cycles:3 () in
  let b = Profilekit.Calibrate.run ~leaf_body_cycles:40 () in
  Alcotest.(check int) "same correction" a.Profilekit.Calibrate.window_correction
    b.Profilekit.Calibrate.window_correction;
  Alcotest.(check int) "same residual" a.Profilekit.Calibrate.call_residual
    b.Profilekit.Calibrate.call_residual

let suite =
  suite
  @ [
      Alcotest.test_case "calibration matches analytic" `Quick
        test_calibration_matches_analytic;
      Alcotest.test_case "calibration body invariant" `Quick
        test_calibration_body_invariant;
    ]

(* --- lossy collection and failure injection --- *)

let test_probe_capacity_drops () =
  let devices = Devices.create () in
  Devices.set_sensor devices (fun _ -> 500);
  let (_, inst, m) = instrumented_machine ~devices steered_program in
  for _ = 1 to 20 do
    ignore (Machine.run_proc m "task")
  done;
  (* 20 invocations x 2 records; a buffer that filled after 11 of them
     ends on a dangling entry record. *)
  let log = Devices.probe_log devices in
  Alcotest.(check int) "two records per invocation" 40 (List.length log);
  let cut = List.filteri (fun i _ -> i < 11) log in
  (* Lossy collection recovers the complete windows and discards the
     dangling frame. *)
  let r = Probes.collect_lossy_records ~program:inst ~resolution:1 cut in
  Alcotest.(check int) "five full windows" 5
    (Array.length (Probes.samples_for r.Probes.samples "task"));
  Alcotest.(check int) "dangling frame discarded" 1 r.Probes.discarded

let test_lossy_equals_strict_when_lossless () =
  let devices = Devices.create () in
  Devices.set_sensor devices (fun _ -> 500);
  let (_, inst, m) = instrumented_machine ~devices steered_program in
  for _ = 1 to 30 do
    ignore (Machine.run_proc m "task")
  done;
  let strict = Probes.collect ~program:inst ~devices in
  let lossy =
    Probes.collect_lossy_records ~program:inst ~resolution:1 (Devices.probe_log devices)
  in
  Alcotest.(check int) "nothing discarded" 0 lossy.Probes.discarded;
  Alcotest.(check bool) "same samples" true (strict = lossy.Probes.samples)

(* Independent record loss on the uplink: one Bernoulli draw per record
   from [Stats.Rng.create seed], in log order, and none at rate 0.
   Returns a device holding the surviving records, and the number lost. *)
let drop_records ~loss ~seed devices =
  let rng = Stats.Rng.create seed in
  let kept = Devices.create () in
  let lost = ref 0 in
  List.iter
    (fun { Devices.pc; cycles; value } ->
      if loss > 0.0 && Stats.Rng.bernoulli rng loss then incr lost
      else Devices.probe kept ~pc ~cycles ~value)
    (Devices.probe_log devices);
  (kept, !lost)

let test_lossy_uplink_estimation_survives () =
  (* 15% record loss: surviving windows still estimate the branch well. *)
  let devices = Devices.create () in
  let seq = ref 0 in
  Devices.set_sensor devices (fun _ ->
      incr seq;
      if !seq mod 4 = 0 then 500 else 50);
  let (_, inst, m) = instrumented_machine ~devices steered_program in
  for _ = 1 to 2000 do
    ignore (Machine.run_proc m "task")
  done;
  let received, lost = drop_records ~loss:0.15 ~seed:4 devices in
  let r =
    Probes.collect_lossy_records ~max_window:50 ~program:inst ~resolution:1
      (Devices.probe_log received)
  in
  let samples = Probes.samples_for r.Probes.samples "task" in
  Alcotest.(check bool) "loss actually happened" true (lost > 100);
  Alcotest.(check bool) "majority of windows survive" true (Array.length samples > 1000);
  let model = Tomo.Model.of_cfg (Cfg.of_proc_name inst "task") in
  let paths = Tomo.Paths.enumerate model in
  let est = Tomo.Em.estimate paths ~samples in
  (* Taken direction is the else-branch: 3/4. *)
  Alcotest.(check bool)
    (Printf.sprintf "estimate near 0.75 (%f)" est.Tomo.Em.theta.(0))
    true
    (abs_float (est.Tomo.Em.theta.(0) -. 0.75) < 0.05)

let test_lossy_nested_poisoning () =
  (* Drop exactly the leaf's exit record: the caller's window must be
     discarded too (its exclusive time is unknowable). *)
  let devices = Devices.create () in
  let (_, inst, m) = instrumented_machine ~devices caller_callee_program in
  ignore (Machine.run_proc m "top");
  let log = Devices.probe_log devices in
  Alcotest.(check int) "four records" 4 (List.length log);
  (* Records: top-entry, leaf-entry, leaf-exit, top-exit.  Replay all but
     the leaf exit into a fresh device. *)
  let d2 = Devices.create () in
  List.iteri
    (fun i { Devices.pc; cycles; value } ->
      if i <> 2 then Devices.probe d2 ~pc ~cycles ~value)
    log;
  let r = Probes.collect_lossy_records ~program:inst ~resolution:1 (Devices.probe_log d2) in
  Alcotest.(check int) "no samples survive" 0
    (List.fold_left (fun acc (_, s) -> acc + Array.length s) 0 r.Probes.samples);
  Alcotest.(check int) "both frames discarded" 2 r.Probes.discarded

let test_window_straddles_timer_wrap () =
  (* Push the cycle clock just below the 16-bit tick wrap, then time an
     invocation whose window crosses it: the modular difference must
     still be exact. *)
  let devices = Devices.create () in
  Devices.set_sensor devices (fun _ -> 500);
  let c = Compile.compile steered_program in
  let inst = Asm.assemble (Probes.instrument c.Compile.items) in
  let m = Machine.create ~program:inst ~devices () in
  ignore (Machine.run_proc m Compile.init_proc_name);
  (* Reference window, far from the wrap. *)
  ignore (Machine.run_proc m "task");
  let reference = (Probes.samples_for (Probes.collect ~program:inst ~devices) "task").(0) in
  Mote_machine.Machine.idle m (65536 - (Mote_machine.Machine.cycles m mod 65536) - 10);
  ignore (Machine.run_proc m "task");
  let samples = Probes.samples_for (Probes.collect ~program:inst ~devices) "task" in
  Alcotest.(check (float 0.0)) "window across wrap is exact" reference
    samples.(Array.length samples - 1)

(* One [top] → [leaf] invocation's four records (top entry, leaf entry,
   leaf exit, top exit) with their timestamps replaced by [values]. *)
let nested_records values =
  let devices = Devices.create () in
  let (_, inst, m) = instrumented_machine ~devices caller_callee_program in
  ignore (Machine.run_proc m "top");
  let records =
    List.map2
      (fun (r : Devices.probe_record) value -> { r with Devices.value })
      (Devices.probe_log devices) values
  in
  (inst, records)

let test_negative_window () =
  (* The leaf's exit reads one tick before its entry, across the 16-bit
     wrap: a window of -1, not 65535, and its parent's exclusive time
     gets that tick back. *)
  let inst, records = nested_records [ 10; 0; 0xFFFF; 30 ] in
  let r = Probes.collect_lossy_records ~program:inst ~resolution:1 records in
  Alcotest.(check int) "nothing discarded" 0 r.Probes.discarded;
  Alcotest.(check (array (float 0.0))) "leaf window" [| -1.0 |]
    (Probes.samples_for r.Probes.samples "leaf");
  Alcotest.(check (array (float 0.0))) "top exclusive" [| 21.0 |]
    (Probes.samples_for r.Probes.samples "top");
  let r = Probes.collect_lossy_records ~program:inst ~resolution:4 records in
  Alcotest.(check (array (float 0.0))) "leaf window, resolution 4" [| -4.0 |]
    (Probes.samples_for r.Probes.samples "leaf")

let test_negative_window_max_window () =
  (* [max_window] bounds a window's magnitude: 40 ticks below zero pass a
     bound of 50, 60 below do not, and the discarded leaf poisons its
     caller as a window 60 too long would. *)
  let kept_inst, kept = nested_records [ 100; 200; 160; 300 ] in
  let r = Probes.collect_lossy_records ~max_window:50 ~program:kept_inst ~resolution:1 kept in
  Alcotest.(check (array (float 0.0))) "-40 kept" [| -40.0 |]
    (Probes.samples_for r.Probes.samples "leaf");
  List.iter
    (fun (what, values) ->
      let inst, records = nested_records values in
      let r = Probes.collect_lossy_records ~max_window:50 ~program:inst ~resolution:1 records in
      Alcotest.(check int) (what ^ ": no samples") 0
        (List.fold_left (fun acc (_, s) -> acc + Array.length s) 0 r.Probes.samples);
      Alcotest.(check int) (what ^ ": both frames discarded") 2 r.Probes.discarded)
    [ ("-60", [ 100; 200; 140; 300 ]); ("+60", [ 100; 200; 260; 300 ]) ]

let suite =
  suite
  @ [
      Alcotest.test_case "probe capacity drops" `Quick test_probe_capacity_drops;
      Alcotest.test_case "lossy = strict when lossless" `Quick
        test_lossy_equals_strict_when_lossless;
      Alcotest.test_case "estimation under uplink loss" `Quick
        test_lossy_uplink_estimation_survives;
      Alcotest.test_case "lossy nested poisoning" `Quick test_lossy_nested_poisoning;
      Alcotest.test_case "window straddles timer wrap" `Quick
        test_window_straddles_timer_wrap;
      Alcotest.test_case "negative window" `Quick test_negative_window;
      Alcotest.test_case "negative window max_window" `Quick test_negative_window_max_window;
    ]

(* --- the resumable collector --- *)

module Collector = Probes.Collector
module Transport = Profilekit.Transport

(* Pristine probe logs of the bundled workloads at a reduced horizon: each
   still closes a few hundred windows.  monitor's task calls instrumented
   helpers, so its windows genuinely nest. *)
let workload_log =
  let cache = Hashtbl.create 4 in
  fun name ->
    match Hashtbl.find_opt cache name with
    | Some v -> v
    | None ->
        let w = Workloads.find name in
        let compiled = Workloads.compiled w in
        let inst = Asm.assemble (Probes.instrument compiled.Compile.items) in
        let config = { Codetomo.Pipeline.default_config with horizon = Some 300_000 } in
        let node =
          List.hd
            (Fleet.Sim.plan ~seed:3 ~nodes:1 ~faults:Transport.default ~vary_faults:false)
        in
        let nr = Fleet.Sim.run_node ~workload:w ~instrumented:inst ~config node in
        let v = (inst, config.Codetomo.Pipeline.timer_resolution, Array.to_list nr.Fleet.Sim.log) in
        Hashtbl.replace cache name v;
        v

let heavy_faults =
  {
    Transport.drop = 0.25;
    corrupt = 0.08;
    duplicate = 0.1;
    reorder = 0.2;
    burst_enter = 0.02;
    reboot = 0.005;
  }

let check_split_matches ~what ?max_window ~program ~resolution ~cut records =
  let i = ref (-1) in
  let split () =
    incr i;
    cut !i
  in
  match Fuzz.Oracles.split_collect_mismatch ?max_window ~program ~resolution ~split records with
  | Some msg -> Alcotest.failf "%s: %s" what msg
  | None -> ()

(* Cut points just after a nested entry: the collector is suspended with
   a caller and its callee both open. *)
let nested_cuts ~program ~resolution records =
  let c = Collector.create ~program ~resolution () in
  let cuts = Hashtbl.create 16 in
  List.iteri
    (fun i r ->
      Collector.feed c r;
      if Collector.open_frames c >= 2 then Hashtbl.replace cuts (i + 1) ())
    records;
  cuts

let test_collector_splits_equal_one_shot () =
  let nested_seen = ref 0 in
  List.iter
    (fun name ->
      let program, resolution, log = workload_log name in
      List.iter
        (fun (fname, faults, max_window) ->
          for seed = 0 to 2 do
            let records, _ = Transport.perturb ~seed faults log in
            let what = Printf.sprintf "%s/%s/seed %d" name fname seed in
            check_split_matches ~what:(what ^ "/singletons") ?max_window ~program
              ~resolution ~cut:(fun _ -> true) records;
            let rng = Stats.Rng.stream ~seed:(17 + seed) ~index:(Hashtbl.hash name) in
            let gap = 1 + Stats.Rng.int rng 40 in
            check_split_matches ~what:(what ^ "/random") ?max_window ~program ~resolution
              ~cut:(fun _ -> Stats.Rng.int rng gap = 0)
              records;
            let nested = nested_cuts ~program ~resolution records in
            nested_seen := !nested_seen + Hashtbl.length nested;
            check_split_matches ~what:(what ^ "/nested") ?max_window ~program ~resolution
              ~cut:(Hashtbl.mem nested) records
          done)
        [
          ("field", Transport.field (), None);
          ("heavy", heavy_faults, None);
          ("heavy+window", heavy_faults, Some 5_000);
        ])
    [ "filter"; "ctp"; "sense"; "monitor" ];
  Alcotest.(check bool) "some cut fell inside a nested window" true (!nested_seen > 0)

(* On a clean log the stack depth is the call depth: monitor_task's
   helper calls put more than one frame on it, so the per-procedure bound
   the split checks assert after every record is not vacuous. *)
let test_collector_state_bounded () =
  let program, resolution, log = workload_log "monitor" in
  let c = Collector.create ~program ~resolution () in
  let deepest =
    List.fold_left
      (fun d r ->
        Collector.feed c r;
        Stdlib.max d (Collector.open_frames c))
      0 log
  in
  Alcotest.(check bool) "nesting observed" true (deepest >= 2);
  Alcotest.(check bool) "within one frame per procedure" true
    (deepest <= List.length (Program.procs program));
  ignore (Collector.drain c);
  Alcotest.(check int) "drain forgets" 0 (List.length (Collector.drain c))

(* The strict collector is the lossy one that must not discard.  On
   real workload runs, clean and over a lossy probe uplink: either
   [collect] raises, exactly when the Collector abandoned a window, or
   its samples are [collect_lossy_records]'s bit for bit.  A window merely left
   open at the end of the log (the run cut mid-task) is no reason to
   raise. *)
let device_log name ~loss ~seed =
  let w = Workloads.find name in
  let compiled = Workloads.compiled w in
  let program = Asm.assemble (Probes.instrument compiled.Compile.items) in
  let devices = Devices.create () in
  let machine = Machine.create ~program ~devices () in
  let env = Env.create { w.Workloads.env_config with Env.seed = 42 + seed } in
  let node = Mote_os.Node.create ~machine ~env ~tasks:w.Workloads.tasks () in
  ignore (Mote_os.Node.run node ~until:200_000);
  (program, fst (drop_records ~loss ~seed devices))

let hex_samples set =
  List.map (fun (proc, a) -> (proc, Array.to_list (Array.map (Printf.sprintf "%h") a))) set

(* [Some abandoned] if [collect] behaved as "lossy + no discards" on this
   device; fails the test otherwise. *)
let check_strict_is_lossy ~what ~program devices =
  let c =
    Collector.create ~program ~resolution:(Devices.timer_resolution devices) ()
  in
  List.iter (Collector.feed c) (Devices.probe_log devices);
  let abandoned = Collector.discarded c in
  let lossy =
    Probes.collect_lossy_records ~program ~resolution:(Devices.timer_resolution devices)
      (Devices.probe_log devices)
  in
  match Probes.collect ~program ~devices with
  | exception Probes.Unbalanced _ ->
      Alcotest.(check bool) (what ^ ": raises only after an abandoned window") true
        (abandoned > 0)
  | strict ->
      Alcotest.(check int) (what ^ ": no window abandoned") 0 abandoned;
      Alcotest.(check int)
        (what ^ ": lossy discards only the open frames")
        (Collector.open_frames c) lossy.Probes.discarded;
      Alcotest.(check (list (pair string (list string))))
        (what ^ ": strict samples = lossy samples")
        (hex_samples lossy.Probes.samples) (hex_samples strict)

let test_strict_is_lossy_without_discards () =
  let raised = ref 0 in
  List.iter
    (fun name ->
      List.iter
        (fun seed ->
          let program, devices = device_log name ~loss:0.0 ~seed in
          let what = Printf.sprintf "%s/clean/seed %d" name seed in
          check_strict_is_lossy ~what ~program devices;
          Alcotest.(check bool) (what ^ ": a clean log collects") true
            (match Probes.collect ~program ~devices with
            | _ -> true
            | exception Probes.Unbalanced _ -> false);
          (* Cut the clean log inside its last window: the frame is left
             open, nothing is abandoned, and collect must not raise. *)
          let log = Devices.probe_log devices in
          let cut = Devices.create () in
          List.iteri
            (fun i { Devices.pc; cycles; value } ->
              if i < List.length log - 1 then Devices.probe cut ~pc ~cycles ~value)
            log;
          check_strict_is_lossy ~what:(what ^ "/cut") ~program cut;
          Alcotest.(check bool) (what ^ "/cut: open frame dropped silently") true
            ((Probes.collect_lossy_records ~program ~resolution:1 (Devices.probe_log cut))
               .Probes.discarded > 0
            && match Probes.collect ~program ~devices:cut with
               | _ -> true
               | exception Probes.Unbalanced _ -> false);
          let program, devices = device_log name ~loss:0.05 ~seed in
          check_strict_is_lossy
            ~what:(Printf.sprintf "%s/lossy/seed %d" name seed)
            ~program devices;
          match Probes.collect ~program ~devices with
          | _ -> ()
          | exception Probes.Unbalanced _ -> incr raised)
        [ 1; 2 ])
    [ "filter"; "ctp"; "sense" ];
  Alcotest.(check bool) "lossy uplinks make collect raise" true (!raised > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "strict = lossy + no discards" `Quick
        test_strict_is_lossy_without_discards;
      Alcotest.test_case "collector: any split = one shot" `Quick
        test_collector_splits_equal_one_shot;
      Alcotest.test_case "collector: bounded open frames" `Quick
        test_collector_state_bounded;
    ]
