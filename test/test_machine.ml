(* Mote_machine: Devices and Machine. *)

module Isa = Mote_isa.Isa
module Asm = Mote_isa.Asm
module Devices = Mote_machine.Devices
module Machine = Mote_machine.Machine

let build items = Asm.assemble items

let machine ?devices items =
  let devices = match devices with Some d -> d | None -> Devices.create () in
  Machine.create ~program:(build items) ~devices ()

let run items =
  let m = machine items in
  ignore (Machine.run_proc m "main");
  m

let test_arithmetic () =
  let m =
    run
      [
        Asm.Proc "main"; Asm.movi 0 6; Asm.movi 1 7; Asm.mul 2 0 1; Asm.addi 3 2 8;
        Asm.sub 4 3 0; Asm.ret;
      ]
  in
  Alcotest.(check int) "mul" 42 (Machine.reg m 2);
  Alcotest.(check int) "addi" 50 (Machine.reg m 3);
  Alcotest.(check int) "sub" 44 (Machine.reg m 4)

let test_wraparound () =
  let m = run [ Asm.Proc "main"; Asm.movi 0 32767; Asm.addi 0 0 1; Asm.ret ] in
  Alcotest.(check int) "16-bit signed wrap" (-32768) (Machine.reg m 0)

let test_shift_ops () =
  let m =
    run
      [
        Asm.Proc "main"; Asm.movi 0 5; Asm.shli 1 0 2; Asm.movi 2 40; Asm.shri 3 2 3;
        Asm.andi 4 2 12; Asm.ret;
      ]
  in
  Alcotest.(check int) "shl" 20 (Machine.reg m 1);
  Alcotest.(check int) "shr" 5 (Machine.reg m 3);
  Alcotest.(check int) "and" 8 (Machine.reg m 4)

let test_branch_taken () =
  let m =
    run
      [
        Asm.Proc "main"; Asm.movi 0 5; Asm.cmpi 0 5; Asm.br Isa.Eq "yes"; Asm.movi 1 111;
        Asm.ret; Asm.Label "yes"; Asm.movi 1 222; Asm.ret;
      ]
  in
  Alcotest.(check int) "took branch" 222 (Machine.reg m 1);
  let s = Machine.stats m in
  Alcotest.(check int) "one cond branch" 1 s.Machine.cond_branches;
  Alcotest.(check int) "one taken" 1 s.Machine.taken_cond_branches

let test_branch_not_taken () =
  let m =
    run
      [
        Asm.Proc "main"; Asm.movi 0 4; Asm.cmpi 0 5; Asm.br Isa.Eq "yes"; Asm.movi 1 111;
        Asm.ret; Asm.Label "yes"; Asm.movi 1 222; Asm.ret;
      ]
  in
  Alcotest.(check int) "fell through" 111 (Machine.reg m 1);
  let s = Machine.stats m in
  Alcotest.(check int) "none taken" 0 s.Machine.taken_cond_branches

let test_all_conditions () =
  (* For (a, b) check each condition's truth. *)
  let check_cond cond a b expected =
    let m =
      run
        [
          Asm.Proc "main"; Asm.movi 0 a; Asm.movi 1 b; Asm.cmp 0 1; Asm.br cond "t";
          Asm.movi 2 0; Asm.ret; Asm.Label "t"; Asm.movi 2 1; Asm.ret;
        ]
    in
    Alcotest.(check int)
      (Printf.sprintf "%d vs %d" a b)
      (if expected then 1 else 0)
      (Machine.reg m 2)
  in
  check_cond Isa.Eq 3 3 true;
  check_cond Isa.Eq 3 4 false;
  check_cond Isa.Ne 3 4 true;
  check_cond Isa.Lt (-1) 0 true;
  check_cond Isa.Lt 0 0 false;
  check_cond Isa.Ge 0 0 true;
  check_cond Isa.Le 0 0 true;
  check_cond Isa.Le 1 0 false;
  check_cond Isa.Gt 1 0 true;
  check_cond Isa.Gt 0 1 false

let test_memory () =
  let m =
    run
      [
        Asm.Proc "main"; Asm.movi 0 100; Asm.movi 1 77; Asm.st 0 3 1; Asm.ld 2 0 3; Asm.ret;
      ]
  in
  Alcotest.(check int) "store/load" 77 (Machine.reg m 2);
  Alcotest.(check int) "memory content" 77 (Machine.read_mem m 103)

let test_memory_fault () =
  Alcotest.(check bool) "load out of range faults" true
    (match run [ Asm.Proc "main"; Asm.movi 0 (-5); Asm.ld 1 0 0; Asm.ret ] with
    | _ -> false
    | exception Machine.Fault _ -> true)

let test_stack () =
  let m =
    run
      [
        Asm.Proc "main"; Asm.movi 0 1; Asm.movi 1 2; Asm.push 0; Asm.push 1; Asm.pop 2;
        Asm.pop 3; Asm.ret;
      ]
  in
  Alcotest.(check int) "lifo pop 1" 2 (Machine.reg m 2);
  Alcotest.(check int) "lifo pop 2" 1 (Machine.reg m 3)

let test_call_ret () =
  let m =
    run
      [
        Asm.Proc "main"; Asm.movi 0 10; Asm.call "double"; Asm.mov 1 15; Asm.ret;
        Asm.Proc "double"; Asm.add 15 0 0; Asm.ret;
      ]
  in
  Alcotest.(check int) "result via r15" 20 (Machine.reg m 1);
  let s = Machine.stats m in
  Alcotest.(check int) "calls" 1 s.Machine.calls;
  Alcotest.(check int) "returns" 2 s.Machine.returns

let test_fuel () =
  Alcotest.(check bool) "infinite loop exhausts fuel" true
    (match
       let m = machine [ Asm.Proc "main"; Asm.Label "spin"; Asm.jmp "spin" ] in
       Machine.run_proc ~fuel:1000 m "main"
     with
    | _ -> false
    | exception Machine.Fault _ -> true)

let test_cycle_accounting () =
  (* movi(1) + movi(1) + add(1) + ret(2+2 penalty) = 7. *)
  let m = machine [ Asm.Proc "main"; Asm.movi 0 1; Asm.movi 1 2; Asm.add 2 0 1; Asm.ret ] in
  let cycles = Machine.run_proc m "main" in
  Alcotest.(check int) "cycle count" 7 cycles

let test_taken_penalty_charged () =
  (* Taken branch costs 2 more than non-taken. *)
  let prog flag =
    [
      Asm.Proc "main"; Asm.movi 0 flag; Asm.cmpi 0 1; Asm.br Isa.Eq "t"; Asm.Label "t";
      Asm.ret;
    ]
  in
  let taken = Machine.run_proc (machine (prog 1)) "main" in
  let fell = Machine.run_proc (machine (prog 0)) "main" in
  Alcotest.(check int) "penalty" Isa.taken_penalty (taken - fell)

let test_taken_transfer_rate () =
  let s =
    {
      Machine.instructions = 0; cycles = 0; cond_branches = 10; taken_cond_branches = 4;
      mispredicted_branches = 4; unconditional_transfers = 5; calls = 2; returns = 2;
    }
  in
  Alcotest.(check (float 1e-9)) "rate" 0.6 (Machine.taken_transfer_rate s)

let test_btfn_prediction () =
  (* A backward taken branch (loop) is free under BTFN; a forward taken
     branch still pays. *)
  let loop_prog =
    [
      Asm.Proc "main"; Asm.movi 0 5; Asm.Label "head"; Asm.subi 0 0 1; Asm.cmpi 0 0;
      Asm.br Isa.Gt "head"; Asm.ret;
    ]
  in
  let run prediction =
    let devices = Devices.create () in
    let m = Machine.create ~prediction ~program:(build loop_prog) ~devices () in
    ignore (Machine.run_proc m "main");
    Machine.stats m
  in
  let nt = run Machine.Predict_not_taken in
  let btfn = run Machine.Predict_btfn in
  Alcotest.(check int) "same taken count" nt.Machine.taken_cond_branches
    btfn.Machine.taken_cond_branches;
  (* Not-taken policy: 4 taken (loop back) mispredicted, final fall-through fine.
     BTFN: backward predicted taken -> 4 loop-backs correct, final exit
     mispredicted. *)
  Alcotest.(check int) "not-taken mispredicts" 4 nt.Machine.mispredicted_branches;
  Alcotest.(check int) "btfn mispredicts once" 1 btfn.Machine.mispredicted_branches;
  Alcotest.(check bool) "btfn is faster" true (btfn.Machine.cycles < nt.Machine.cycles)

let test_run_from_symbol_halt () =
  let m = machine [ Asm.Proc "main"; Asm.movi 0 9; Asm.halt ] in
  Machine.run_from_symbol m "main";
  Alcotest.(check bool) "halted" true (Machine.halted m);
  Alcotest.(check int) "ran" 9 (Machine.reg m 0)

let test_globals_persist () =
  let m = machine [ Asm.Proc "main"; Asm.movi 0 50; Asm.ld 1 0 0; Asm.addi 1 1 1; Asm.st 0 0 1; Asm.ret ] in
  ignore (Machine.run_proc m "main");
  ignore (Machine.run_proc m "main");
  ignore (Machine.run_proc m "main");
  Alcotest.(check int) "memory persists across invocations" 3 (Machine.read_mem m 50)

let test_reset () =
  let m = machine [ Asm.Proc "main"; Asm.movi 0 50; Asm.st 0 0 0; Asm.ret ] in
  ignore (Machine.run_proc m "main");
  Machine.reset m;
  Alcotest.(check int) "cycles zero" 0 (Machine.cycles m);
  Alcotest.(check int) "memory zero" 0 (Machine.read_mem m 50)

(* --- devices --- *)

let test_timer_quantization () =
  let d = Devices.create ~timer_resolution:8 () in
  Alcotest.(check int) "floor" 2 (Devices.read_timer d ~cycles:17);
  Alcotest.(check int) "exact" 2 (Devices.read_timer d ~cycles:16);
  Alcotest.(check int) "zero" 0 (Devices.read_timer d ~cycles:7)

let test_timer_jitter_statistics () =
  let d = Devices.create ~timer_jitter:4.0 ~rng:(Stats.Rng.create 1) () in
  let s = Stats.Summary.create () in
  for _ = 1 to 5000 do
    Stats.Summary.add s (float_of_int (Devices.read_timer d ~cycles:1000))
  done;
  Alcotest.(check bool) "mean near 1000" true
    (abs_float (Stats.Summary.mean s -. 1000.0) < 1.0);
  Alcotest.(check bool) "spread present" true (Stats.Summary.stddev s > 2.0);
  let rejected f = match f () with _ -> false | exception Invalid_argument _ -> true in
  List.iter
    (fun j ->
      Alcotest.(check bool) (Printf.sprintf "jitter %g rejected" j) true
        (rejected (fun () -> Devices.create ~timer_jitter:j ())))
    [ -1.0; Float.nan; Float.infinity ]

let test_sensor_hookup () =
  let d = Devices.create () in
  Devices.set_sensor d (fun ch -> 100 + ch);
  Alcotest.(check int) "channel 3" 103 (Devices.read_sensor d ~channel:3)

let test_radio_queue () =
  let d = Devices.create () in
  Alcotest.(check int) "empty reads 0" 0 (Devices.radio_rx d);
  Devices.radio_push_rx d 11;
  Devices.radio_push_rx d 22;
  Alcotest.(check int) "pending" 2 (Devices.radio_rx_pending d);
  Alcotest.(check int) "fifo 1" 11 (Devices.radio_rx d);
  Alcotest.(check int) "fifo 2" 22 (Devices.radio_rx d)

let test_tx_log () =
  let d = Devices.create () in
  Devices.radio_tx d 5;
  Devices.radio_tx d 6;
  Alcotest.(check (list int)) "tx order" [ 5; 6 ] (Devices.tx_log d)

let test_counters () =
  let d = Devices.create () in
  Devices.bump_counter d 3;
  Devices.bump_counter d 3;
  Devices.bump_counter d 8;
  Alcotest.(check int) "counter 3" 2 (Devices.counter d 3);
  Alcotest.(check int) "counter unset" 0 (Devices.counter d 99);
  Alcotest.(check (list (pair int int))) "all" [ (3, 2); (8, 1) ] (Devices.counters d)

let test_probe_log () =
  let d = Devices.create () in
  Devices.probe d ~pc:10 ~cycles:100 ~value:42;
  Devices.probe d ~pc:20 ~cycles:200 ~value:43;
  match Devices.probe_log d with
  | [ a; b ] ->
      Alcotest.(check int) "first pc" 10 a.Devices.pc;
      Alcotest.(check int) "second value" 43 b.Devices.value
  | _ -> Alcotest.fail "log length"

let test_device_ports_via_machine () =
  let d = Devices.create ~timer_resolution:4 () in
  Devices.set_sensor d (fun _ -> 777);
  let m =
    machine ~devices:d
      [
        Asm.Proc "main";
        Asm.input 0 (Isa.P_sensor 0);
        Asm.input 1 Isa.P_timer;
        Asm.output Isa.P_radio_tx 0;
        Asm.movi 2 7;
        Asm.output Isa.P_leds 2;
        Asm.output Isa.P_counter 2;
        Asm.ret;
      ]
  in
  ignore (Machine.run_proc m "main");
  Alcotest.(check int) "sensor read" 777 (Machine.reg m 0);
  Alcotest.(check (list int)) "tx" [ 777 ] (Devices.tx_log d);
  Alcotest.(check int) "leds" 7 (Devices.leds d);
  Alcotest.(check int) "counter 7" 1 (Devices.counter d 7)

let test_write_to_input_port_faults () =
  Alcotest.(check bool) "out to timer faults" true
    (match run [ Asm.Proc "main"; Asm.output Isa.P_timer 0; Asm.ret ] with
    | _ -> false
    | exception Machine.Fault _ -> true)

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "wraparound" `Quick test_wraparound;
    Alcotest.test_case "shifts" `Quick test_shift_ops;
    Alcotest.test_case "branch taken" `Quick test_branch_taken;
    Alcotest.test_case "branch not taken" `Quick test_branch_not_taken;
    Alcotest.test_case "all conditions" `Quick test_all_conditions;
    Alcotest.test_case "memory" `Quick test_memory;
    Alcotest.test_case "memory fault" `Quick test_memory_fault;
    Alcotest.test_case "stack" `Quick test_stack;
    Alcotest.test_case "call/ret" `Quick test_call_ret;
    Alcotest.test_case "fuel" `Quick test_fuel;
    Alcotest.test_case "cycle accounting" `Quick test_cycle_accounting;
    Alcotest.test_case "taken penalty" `Quick test_taken_penalty_charged;
    Alcotest.test_case "taken transfer rate" `Quick test_taken_transfer_rate;
    Alcotest.test_case "btfn prediction" `Quick test_btfn_prediction;
    Alcotest.test_case "run from symbol" `Quick test_run_from_symbol_halt;
    Alcotest.test_case "globals persist" `Quick test_globals_persist;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "timer quantization" `Quick test_timer_quantization;
    Alcotest.test_case "timer jitter" `Quick test_timer_jitter_statistics;
    Alcotest.test_case "sensor hookup" `Quick test_sensor_hookup;
    Alcotest.test_case "radio queue" `Quick test_radio_queue;
    Alcotest.test_case "tx log" `Quick test_tx_log;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "probe log" `Quick test_probe_log;
    Alcotest.test_case "ports via machine" `Quick test_device_ports_via_machine;
    Alcotest.test_case "write to input port" `Quick test_write_to_input_port_faults;
  ]

let test_trace_hook () =
  let m =
    machine [ Asm.Proc "main"; Asm.movi 0 1; Asm.movi 1 2; Asm.add 2 0 1; Asm.ret ]
  in
  let seen = ref [] in
  Machine.set_trace_hook m (Some (fun ~pc ~instr:_ ~cycles:_ -> seen := pc :: !seen));
  ignore (Machine.run_proc m "main");
  Alcotest.(check (list int)) "every pc traced in order" [ 0; 1; 2; 3 ] (List.rev !seen);
  Machine.set_trace_hook m None;
  seen := [];
  ignore (Machine.run_proc m "main");
  Alcotest.(check (list int)) "hook removable" [] !seen

let suite = suite @ [ Alcotest.test_case "trace hook" `Quick test_trace_hook ]

(* --- the interpreter loop against Machine.Reference --- *)

module Pipeline = Codetomo.Pipeline

let both_predictions = [ Machine.Predict_not_taken; Machine.Predict_btfn ]

let check_agrees label result =
  match result with
  | None -> ()
  | Some msg -> Alcotest.failf "%s: %s" label msg

(* Every workload's natural, instrumented, Pettis–Hansen-placed and
   pessimal binary, under both prediction policies: __init, then 40
   rounds of the workload's tasks. *)
let test_loop_matches_reference_on_workloads () =
  List.iter
    (fun (w : Workloads.t) ->
      let run = Pipeline.profile w in
      let binaries =
        [
          ("natural", Pipeline.natural_binary run);
          ("instrumented", run.Pipeline.instrumented);
          ( "pettis-hansen",
            Pipeline.placed_binary run ~profiles:run.Pipeline.oracle_freqs
              ~algorithm:Layout.Algorithms.pettis_hansen );
          ("pessimal", Pipeline.worst_binary run);
        ]
      in
      let tasks = List.map (fun (t : Mote_os.Node.task) -> t.Mote_os.Node.proc) w.Workloads.tasks in
      let calls =
        Mote_lang.Compile.init_proc_name :: List.concat (List.init 40 (fun _ -> tasks))
      in
      List.iter
        (fun (name, binary) ->
          List.iter
            (fun prediction ->
              check_agrees
                (Printf.sprintf "%s %s %s" w.Workloads.name name
                   (match prediction with
                   | Machine.Predict_not_taken -> "not-taken"
                   | Machine.Predict_btfn -> "btfn"))
                (Fuzz.Oracles.interpreter_mismatch ~prediction ~env:w.Workloads.env_config
                   binary calls))
            both_predictions)
        binaries)
    Workloads.all

(* Faults end both interpreters with the same message, after the same
   trace (every pc and cycle count the trace hook saw), and leave the
   same state behind: statistics, pc, sp, registers and memory.  Every
   case runs with and without a trace hook, since the loop leaves its
   fast path around the hook. *)
let test_loop_matches_reference_on_faults () =
  let raw i = Asm.I i in
  let cases =
    [
      ( "fuel",
        [ Asm.Proc "main"; Asm.Label "spin"; Asm.addi 0 0 1; Asm.jmp "spin" ],
        "out of fuel at pc=0" );
      ( "load",
        [ Asm.Proc "main"; Asm.movi 0 5000; Asm.ld 1 0 3; Asm.ret ],
        "load outside memory: 5003" );
      ( "store",
        [ Asm.Proc "main"; Asm.movi 0 (-2); Asm.st 0 0 1; Asm.ret ],
        "store outside memory: -2" );
      ("stack overflow", [ Asm.Proc "main"; Asm.push 0; Asm.call "main"; Asm.ret ], "stack overflow");
      ("stack underflow", [ Asm.Proc "main"; Asm.pop 0; Asm.pop 0; Asm.ret ], "stack underflow");
      ("movi register", [ Asm.Proc "main"; Asm.movi 16 1; Asm.ret ], "bad register r16");
      ( "mov register",
        [ Asm.Proc "main"; Asm.movi 0 3; raw (Isa.Mov (17, 0)); Asm.ret ],
        "bad register r17" );
      ( "alu register",
        [ Asm.Proc "main"; Asm.movi 0 3; raw (Isa.Alu (Isa.Add, 20, 0, 0)); Asm.ret ],
        "bad register r20" );
      ( "alui register",
        [ Asm.Proc "main"; raw (Isa.Alui (Isa.Mul, -1, 0, 5)); Asm.ret ],
        "bad register r-1" );
      ( "ld register",
        [ Asm.Proc "main"; Asm.movi 0 100; raw (Isa.Ld (16, 0, 1)); Asm.ret ],
        "bad register r16" );
      ( "pop register",
        [ Asm.Proc "main"; Asm.movi 0 7; Asm.push 0; raw (Isa.Pop 16); Asm.ret ],
        "bad register r16" );
      ( "in register",
        [ Asm.Proc "main"; raw (Isa.In (99, Isa.P_timer)); Asm.ret ],
        "bad register r99" );
      ("pc past the end", [ Asm.Proc "main"; Asm.movi 0 1; Asm.addi 0 0 2 ], "pc outside program: 2");
      ( "ret outside the program",
        [ Asm.Proc "main"; Asm.movi 0 9999; Asm.push 0; Asm.ret ],
        "pc outside program: 9999" );
      ( "read radio.tx",
        [ Asm.Proc "main"; Asm.movi 0 1; raw (Isa.In (0, Isa.P_radio_tx)); Asm.ret ],
        "cannot read from radio.tx" );
      ( "write timer",
        [ Asm.Proc "main"; Asm.movi 0 1; raw (Isa.Out (Isa.P_timer, 0)); Asm.ret ],
        "cannot write to timer" );
    ]
  in
  let leave_procedure = [ "pc past the end" ] in
  List.iter
    (fun (label, items, expected) ->
      let program = build items in
      (* The differential oracle counts branches per CFG block, so it
         needs a program whose control stays inside its procedures: only
         a case named in [leave_procedure] may fail to build a CFG. *)
      (match Cfgir.Cfg.of_program program with
      | exception Cfgir.Cfg.Malformed _ when List.mem label leave_procedure -> ()
      | _ when List.mem label leave_procedure -> Alcotest.failf "%s: CFG is not malformed" label
      | _ ->
          check_agrees label
            (Fuzz.Oracles.interpreter_mismatch ~fuel:1001 ~env:Env.default_config program
               [ "main" ]));
      let run ~traced run_proc =
        let m = Machine.create ~program ~devices:(Devices.create ()) () in
        let trace = ref [] in
        if traced then
          Machine.set_trace_hook m
            (Some (fun ~pc ~instr:_ ~cycles -> trace := (pc, cycles) :: !trace));
        match run_proc ?fuel:(Some 100_000) m "main" with
        | _ -> Alcotest.failf "%s: no fault" label
        | exception Machine.Fault msg ->
            let state =
              ( Machine.stats m,
                (Machine.pc m, Machine.sp m),
                Array.init Isa.num_regs (Machine.reg m),
                Array.init 4096 (Machine.read_mem m) )
            in
            (msg, !trace, state)
      in
      List.iter
        (fun traced ->
          let label = if traced then label ^ " (traced)" else label in
          let fast_msg, fast_trace, fast_state = run ~traced Machine.run_proc in
          let ref_msg, ref_trace, ref_state = run ~traced Machine.Reference.run_proc in
          Alcotest.(check string) (label ^ ": loop message") expected fast_msg;
          Alcotest.(check string) (label ^ ": reference message") expected ref_msg;
          Alcotest.(check bool) (label ^ ": same trace") true (fast_trace = ref_trace);
          let stats ((s : Machine.stats), _, _, _) =
            [
              s.instructions; s.cycles; s.cond_branches; s.taken_cond_branches;
              s.mispredicted_branches; s.unconditional_transfers; s.calls; s.returns;
            ]
          in
          Alcotest.(check (list int)) (label ^ ": same stats") (stats ref_state) (stats fast_state);
          let (_, (ref_pc, ref_sp), ref_regs, ref_mem) = ref_state
          and (_, (pc, sp), regs, mem) = fast_state in
          Alcotest.(check int) (label ^ ": same pc") ref_pc pc;
          Alcotest.(check int) (label ^ ": same sp") ref_sp sp;
          Alcotest.(check (array int)) (label ^ ": same registers") ref_regs regs;
          Alcotest.(check bool) (label ^ ": same memory") true (ref_mem = mem))
        [ false; true ])
    cases

(* A stack overflow leaves sp at -1; popping there indexes outside
   memory in both interpreters alike. *)
let test_pop_after_overflow () =
  let program =
    build
      [
        Asm.Proc "main"; Asm.push 0; Asm.call "main"; Asm.ret; Asm.Proc "drop"; Asm.Label "drop_at";
        Asm.pop 1; Asm.ret;
      ]
  in
  let run (run_proc, run_from_symbol) =
    let m = Machine.create ~mem_words:64 ~program ~devices:(Devices.create ()) () in
    (match run_proc ?fuel:None m "main" with
    | _ -> Alcotest.fail "no overflow"
    | exception Machine.Fault _ -> ());
    let outcome =
      match run_from_symbol ?fuel:None m "drop_at" with
      | () -> "returned"
      | exception Invalid_argument msg -> "invalid argument: " ^ msg
      | exception Machine.Fault msg -> "fault: " ^ msg
    in
    (outcome, Machine.stats m, Machine.pc m, Machine.sp m)
  in
  let fast = run (Machine.run_proc, Machine.run_from_symbol)
  and reference = run (Machine.Reference.run_proc, Machine.Reference.run_from_symbol) in
  let outcome, _, _, _ = fast in
  Alcotest.(check string) "outcome" "invalid argument: index out of bounds" outcome;
  Alcotest.(check bool) "same state" true (fast = reference)

let suite =
  suite
  @ [
      Alcotest.test_case "pop after overflow" `Quick test_pop_after_overflow;
      Alcotest.test_case "loop = reference on workloads" `Quick
        test_loop_matches_reference_on_workloads;
      Alcotest.test_case "loop = reference on faults" `Quick
        test_loop_matches_reference_on_faults;
    ]
