(* Mote_os.Node: scheduling, events, queue behaviour. *)

open Mote_lang.Ast.Dsl
module Node = Mote_os.Node
module Compile = Mote_lang.Compile
module Machine = Mote_machine.Machine
module Devices = Mote_machine.Devices

let simple_program =
  {
    Mote_lang.Ast.globals = [ ("ticks", 0); ("rx_count", 0) ];
    arrays = [];
    procs =
      [
        proc "tick_task" ~params:[] ~locals:[] [ set "ticks" (v "ticks" +: i 1) ];
        proc "rx_task" ~params:[] ~locals:[ "p" ]
          [ set "p" radio_rx; set "rx_count" (v "rx_count" +: i 1) ];
        proc "boot_task" ~params:[] ~locals:[] [ led (i 1) ];
      ];
  }

let make_node ?(env_cfg = { Env.seed = 3; channels = []; radio = Env.Silent }) tasks =
  let c = Compile.compile simple_program in
  let devices = Devices.create () in
  let machine = Machine.create ~program:c.Compile.program ~devices () in
  let env = Env.create env_cfg in
  (c, machine, Node.create ~machine ~env ~tasks ())

let read_global (c, machine, _) name =
  Machine.read_mem machine (Compile.var_address c ~proc:"tick_task" name)

let test_unknown_task_rejected () =
  Alcotest.(check bool) "rejected" true
    (match make_node [ { Node.proc = "missing"; source = Node.Boot } ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_boot_task_runs_once () =
  let ((_, machine, node) as t) = make_node [ { Node.proc = "boot_task"; source = Node.Boot } ] in
  let stats = Node.run node ~until:10_000 in
  Alcotest.(check int) "one run" 1 (Node.invocations stats "boot_task");
  Alcotest.(check int) "led set" 1 (Devices.leds (Machine.devices machine));
  ignore (read_global t "ticks")

let test_periodic_count () =
  let ((_, _, node) as t) =
    make_node [ { Node.proc = "tick_task"; source = Node.Periodic { period = 1000; offset = 0 } } ]
  in
  let stats = Node.run node ~until:100_000 in
  let n = Node.invocations stats "tick_task" in
  (* Fires at 0, 1000, ..., 99000 -> at least 100 (plus boundary effects). *)
  Alcotest.(check bool) (Printf.sprintf "about 100 runs (%d)" n) true (n >= 100 && n <= 101);
  Alcotest.(check int) "global matches" n (read_global t "ticks")

let test_radio_task_runs_per_packet () =
  let env_cfg =
    { Env.seed = 5; channels = []; radio = Env.Poisson { per_kilocycle = 0.5; payload_lo = 1; payload_hi = 5 } }
  in
  let ((_, _, node) as t) = make_node ~env_cfg [ { Node.proc = "rx_task"; source = Node.On_radio_rx } ] in
  let stats = Node.run node ~until:200_000 in
  let runs = Node.invocations stats "rx_task" in
  Alcotest.(check int) "one run per packet" stats.Node.packets_delivered runs;
  Alcotest.(check bool) (Printf.sprintf "packets arrived (%d)" runs) true (runs > 50);
  Alcotest.(check int) "rx_count global" runs (read_global t "rx_count")

let test_queue_overflow_drops () =
  (* Period far smaller than the task duration is impossible here (tasks are
     quick), so instead use a tiny horizon with many timers posting at once. *)
  let tasks =
    List.init 40 (fun i ->
        { Node.proc = "tick_task"; source = Node.Periodic { period = 100_000; offset = i } })
  in
  let c = Compile.compile simple_program in
  let devices = Devices.create () in
  let machine = Machine.create ~program:c.Compile.program ~devices () in
  let env = Env.create { Env.seed = 1; channels = []; radio = Env.Silent } in
  let node = Node.create ~machine ~env ~tasks ~queue_capacity:8 () in
  let stats = Node.run node ~until:50_000 in
  Alcotest.(check bool)
    (Printf.sprintf "drops counted (%d)" stats.Node.tasks_dropped)
    true
    (stats.Node.tasks_dropped > 0)

let test_idle_accounting () =
  let (_, _, node) =
    make_node [ { Node.proc = "tick_task"; source = Node.Periodic { period = 10_000; offset = 0 } } ]
  in
  let stats = Node.run node ~until:100_000 in
  Alcotest.(check bool) "mostly idle" true
    (stats.Node.idle_cycles > (8 * stats.Node.total_cycles / 10));
  Alcotest.(check int) "busy + idle = total" stats.Node.total_cycles
    (stats.Node.busy_cycles + stats.Node.idle_cycles)

let test_run_extends () =
  let (_, _, node) =
    make_node [ { Node.proc = "tick_task"; source = Node.Periodic { period = 1000; offset = 0 } } ]
  in
  let s1 = Node.run node ~until:10_000 in
  let s2 = Node.run node ~until:20_000 in
  Alcotest.(check bool) "cumulative" true
    (Node.invocations s2 "tick_task" > Node.invocations s1 "tick_task")

let test_globals_initialized_by_node () =
  (* Node.create must run __init: check a nonzero-initialized global. *)
  let program =
    { Mote_lang.Ast.globals = [ ("g", 1234) ]; arrays = []; procs = [ proc "t" ~params:[] ~locals:[] [] ] }
  in
  let c = Compile.compile program in
  let devices = Devices.create () in
  let machine = Machine.create ~program:c.Compile.program ~devices () in
  let env = Env.create { Env.seed = 1; channels = []; radio = Env.Silent } in
  let _node = Node.create ~machine ~env ~tasks:[ { Node.proc = "t"; source = Node.Boot } ] () in
  Alcotest.(check int) "initialized" 1234
    (Machine.read_mem machine (Compile.var_address c ~proc:"t" "g"))

(* Each drain returns exactly the words sent since the previous one. *)
let test_drain_tx_multi () =
  let program =
    {
      Mote_lang.Ast.globals = [ ("n", 0) ];
      arrays = [];
      procs = [ proc "beacon" ~params:[] ~locals:[] [ set "n" (v "n" +: i 1); send (v "n") ] ];
    }
  in
  let c = Compile.compile program in
  let devices = Devices.create () in
  let machine = Machine.create ~program:c.Compile.program ~devices () in
  let env = Env.create { Env.seed = 1; channels = []; radio = Env.Silent } in
  let node =
    Node.create ~machine ~env
      ~tasks:[ { Node.proc = "beacon"; source = Node.Periodic { period = 1000; offset = 0 } } ]
      ()
  in
  let drains =
    List.init 6 (fun k ->
        ignore (Node.run node ~until:((k + 1) * 7_000));
        Node.drain_tx node)
  in
  Alcotest.(check (list int)) "nothing new, nothing drained" [] (Node.drain_tx node);
  List.iteri
    (fun k words ->
      Alcotest.(check bool) (Printf.sprintf "drain %d non-empty" k) true (words <> []))
    drains;
  let log = Devices.tx_log devices in
  Alcotest.(check (list int)) "drains concatenate to the log" log (List.concat drains);
  Alcotest.(check (list int)) "words in order" (List.init (List.length log) (fun i -> i + 1)) log;
  Alcotest.(check int) "tx_count" (List.length log) (Devices.tx_count devices);
  Alcotest.(check (list int)) "tx_since" (List.filteri (fun i _ -> i >= 10) log)
    (Devices.tx_since devices 10)

(* Goldens recorded before the task loop moved to arrays and a ring
   buffer: every workload's natural binary (jitter 0, seed 42) and
   instrumented binary (jitter 3, seed 5) over its full horizon, and a
   queue-stressing node (12 boot tasks over a capacity of 8, 40 timers,
   two radio tasks) extended over three [run] calls.  A scheduling change
   that moves a single task shows up in one of these numbers. *)
let workload_goldens =
  [
    ("blink", false, [ ("blink_task", 4992) ], 0, 0, 170352, 2829636, 100471, 9360, 0, 0);
    ("blink", true, [ ("blink_task", 4992) ], 0, 0, 210296, 2789692, 120446, 9359, 9984, 0);
    ( "sense", false, [ ("report_task", 286); ("sense_task", 4440) ], 0, 0, 204794, 3795190,
      127810, 4158, 0, 1256 );
    ( "sense", true, [ ("report_task", 286); ("sense_task", 4440) ], 0, 0, 242448, 3757536,
      146612, 4220, 9452, 1204 );
    ("filter", false, [ ("filter_task", 4994) ], 0, 0, 326019, 3673969, 209824, 8641, 0, 1091);
    ("filter", true, [ ("filter_task", 4994) ], 0, 0, 365156, 3634832, 229149, 8749, 9988, 1079);
    ( "ctp", false, [ ("ctp_beacon_task", 251); ("ctp_rx_task", 2929) ], 0, 2929, 262633,
      4737343, 168769, 8524, 0, 795 );
    ( "ctp", true, [ ("ctp_beacon_task", 251); ("ctp_rx_task", 3016) ], 0, 3016, 298933,
      4701043, 188472, 8828, 6534, 828 );
    ( "monitor", false, [ ("monitor_task", 3331) ], 0, 0, 415148, 3584840, 251728, 14364, 0,
      208 );
    ( "monitor", true, [ ("monitor_task", 3331) ], 0, 0, 495360, 3504628, 291968, 14332, 19986,
      208 );
  ]

let test_workload_goldens () =
  List.iter
    (fun (name, instrumented, runs, dropped, packets, busy, idle, instrs, mispredicted, probes, tx) ->
      let w = Workloads.find name in
      let c = Workloads.compiled w in
      let binary =
        if instrumented then
          Mote_isa.Asm.assemble (Profilekit.Probes.instrument c.Compile.items)
        else c.Compile.program
      in
      let jitter, seed = if instrumented then (3.0, 5) else (0.0, 42) in
      let devices =
        Devices.create ~timer_resolution:1 ~timer_jitter:jitter
          ~rng:(Stats.Rng.create (seed + 7919))
          ()
      in
      let machine = Machine.create ~program:binary ~devices () in
      let env = Env.create { (w.Workloads.env_config) with Env.seed } in
      let node = Node.create ~machine ~env ~tasks:w.Workloads.tasks () in
      let s = Node.run node ~until:w.Workloads.horizon in
      let m = Machine.stats machine in
      let label what = Printf.sprintf "%s%s %s" name (if instrumented then "+probes" else "") what in
      Alcotest.(check (list (pair string int))) (label "tasks run") runs s.Node.tasks_run;
      Alcotest.(check int) (label "dropped") dropped s.Node.tasks_dropped;
      Alcotest.(check int) (label "packets") packets s.Node.packets_delivered;
      Alcotest.(check int) (label "busy") busy s.Node.busy_cycles;
      Alcotest.(check int) (label "idle") idle s.Node.idle_cycles;
      Alcotest.(check int) (label "instructions") instrs m.Machine.instructions;
      Alcotest.(check int) (label "mispredicted") mispredicted m.Machine.mispredicted_branches;
      Alcotest.(check int) (label "probe records") probes
        (List.length (Devices.probe_log devices));
      Alcotest.(check int) (label "tx words") tx (Devices.tx_count devices))
    workload_goldens

let test_queue_golden () =
  let c = Compile.compile simple_program in
  let tasks =
    List.init 12 (fun _ -> { Node.proc = "boot_task"; source = Node.Boot })
    @ List.init 40 (fun i ->
          {
            Node.proc = "tick_task";
            source = Node.Periodic { period = 7_000 + (i * 13); offset = i * 3 };
          })
    @ [
        { Node.proc = "rx_task"; source = Node.On_radio_rx };
        { Node.proc = "rx_task"; source = Node.On_radio_rx };
      ]
  in
  let devices = Devices.create () in
  let machine = Machine.create ~program:c.Compile.program ~devices () in
  let env =
    Env.create
      {
        Env.seed = 3;
        channels = [];
        radio = Env.Poisson { per_kilocycle = 2.0; payload_lo = 1; payload_hi = 9 };
      }
  in
  let node = Node.create ~machine ~env ~tasks ~queue_capacity:8 () in
  List.iter
    (fun (until, runs, dropped, packets, busy, idle) ->
      let s = Node.run node ~until in
      let label what = Printf.sprintf "until %d: %s" until what in
      Alcotest.(check (list (pair string int))) (label "tasks run") runs s.Node.tasks_run;
      Alcotest.(check int) (label "dropped") dropped s.Node.tasks_dropped;
      Alcotest.(check int) (label "packets") packets s.Node.packets_delivered;
      Alcotest.(check int) (label "busy") busy s.Node.busy_cycles;
      Alcotest.(check int) (label "idle") idle s.Node.idle_cycles)
    [
      (20_000, [ ("boot_task", 12); ("rx_task", 62); ("tick_task", 90) ], 30, 31, 2066, 17922);
      ( 150_000, [ ("boot_task", 12); ("rx_task", 572); ("tick_task", 820) ], 30, 286, 18256,
        131737 );
      ( 400_000, [ ("boot_task", 12); ("rx_task", 1610); ("tick_task", 2196) ], 30, 805, 50000,
        349988 );
    ]

(* A shadow charged nothing follows the node exactly, even on a node
   whose queue overflows under radio traffic; one charged a few cycles per
   task keeps its lead only until the node next sleeps; one that would be
   late for a timer fire drops out; and only a first run takes shadows. *)
let test_shadows () =
  let stressed () =
    let tasks =
      List.init 12 (fun _ -> { Node.proc = "boot_task"; source = Node.Boot })
      @ List.init 40 (fun i ->
            { Node.proc = "tick_task"; source = Node.Periodic { period = 7_000 + (i * 13); offset = i * 3 } })
      @ [ { Node.proc = "rx_task"; source = Node.On_radio_rx } ]
    in
    let c = Compile.compile simple_program in
    let machine = Machine.create ~program:c.Compile.program ~devices:(Devices.create ()) () in
    let env =
      Env.create
        {
          Env.seed = 3;
          channels = [];
          radio = Env.Poisson { per_kilocycle = 2.0; payload_lo = 1; payload_hi = 9 };
        }
    in
    (machine, Node.create ~machine ~env ~tasks ~queue_capacity:8 ())
  in
  let machine, node = stressed () in
  let sh = Node.shadow node ~entry:(fun _ -> (0, 0)) { Node.cycles = 0; instructions = 0 } in
  let s = Node.run ~shadows:[| sh |] node ~until:150_000 in
  Alcotest.(check bool) "stressed: drops" true (s.Node.tasks_dropped > 0);
  Alcotest.(check bool) "stressed: free shadow = node" true
    (Node.shadow_run node sh = Some (s, Machine.cycles machine));
  Alcotest.check_raises "second run" (Invalid_argument "Node.run: shadows follow a node's first run")
    (fun () -> ignore (Node.run ~shadows:[| sh |] node ~until:200_000));
  let charged period =
    let _, machine, node =
      make_node [ { Node.proc = "tick_task"; source = Node.Periodic { period; offset = 10 } } ]
    in
    let sh =
      Node.shadow node ~entry:(fun proc -> if proc = "tick_task" then (5, 0) else (0, 0))
        { Node.cycles = 0; instructions = 0 }
    in
    let s = Node.run ~shadows:[| sh |] node ~until:100_000 in
    (s, Machine.cycles machine, Node.shadow_run node sh)
  in
  let s, cycles, shadowed = charged 1_000 in
  let runs = Node.invocations s "tick_task" in
  Alcotest.(check bool) "5 cycles more per task, same end" true
    (shadowed
    = Some
        ( {
            s with
            Node.busy_cycles = s.Node.busy_cycles + (5 * runs);
            idle_cycles = s.Node.idle_cycles - (5 * runs);
          },
          cycles ));
  let s, _, shadowed = charged 1 in
  Alcotest.(check bool) "overloaded: the node drops" true (s.Node.tasks_dropped > 0);
  Alcotest.(check bool) "overloaded: the shadow drops out" true (shadowed = None)

(* A node whose only task is [On_radio_rx], under sparse traffic: most
   131072-cycle stretches of the schedule hold no arrival, and the node
   must sleep past them to the next one rather than to [until].  Every
   arrival [Env.radio_arrivals] yields before [until] is delivered; the
   schedule is drawn in the node's 2^17-cycle chunks, as the node draws
   it.  A free shadow follows the node through the same run. *)
let test_sparse_radio_only () =
  let env_cfg =
    {
      Env.seed = 5;
      channels = [];
      radio = Env.Poisson { per_kilocycle = 0.002; payload_lo = 1; payload_hi = 5 };
    }
  in
  let until = 20_000_000 in
  let chunk = 1 lsl 17 in
  let env = Env.create env_cfg in
  let rec arrivals from acc =
    if from >= until then acc
    else
      let batch = Env.radio_arrivals env ~from_cycle:from ~to_cycle:(from + chunk) in
      arrivals (from + chunk) (acc + List.length (List.filter (fun (at, _) -> at < until) batch))
  in
  let expected = arrivals 0 0 in
  Alcotest.(check bool) (Printf.sprintf "traffic is sparse but present (%d)" expected) true
    (expected > 10 && expected * chunk < until);
  let ((_, machine, node) as t) =
    make_node ~env_cfg [ { Node.proc = "rx_task"; source = Node.On_radio_rx } ]
  in
  let sh = Node.shadow node ~entry:(fun _ -> (0, 0)) { Node.cycles = 0; instructions = 0 } in
  let s = Node.run ~shadows:[| sh |] node ~until in
  Alcotest.(check int) "every arrival delivered" expected s.Node.packets_delivered;
  Alcotest.(check int) "one run per packet" expected (Node.invocations s "rx_task");
  Alcotest.(check int) "rx_count global" expected (read_global t "rx_count");
  Alcotest.(check bool) "free shadow = node" true
    (Node.shadow_run node sh = Some (s, Machine.cycles machine))

let suite =
  [
    Alcotest.test_case "unknown task" `Quick test_unknown_task_rejected;
    Alcotest.test_case "boot task" `Quick test_boot_task_runs_once;
    Alcotest.test_case "periodic count" `Quick test_periodic_count;
    Alcotest.test_case "radio task per packet" `Quick test_radio_task_runs_per_packet;
    Alcotest.test_case "queue overflow" `Quick test_queue_overflow_drops;
    Alcotest.test_case "idle accounting" `Quick test_idle_accounting;
    Alcotest.test_case "run extends" `Quick test_run_extends;
    Alcotest.test_case "node runs init" `Quick test_globals_initialized_by_node;
    Alcotest.test_case "drain tx repeatedly" `Quick test_drain_tx_multi;
    Alcotest.test_case "workload run goldens" `Quick test_workload_goldens;
    Alcotest.test_case "queue and radio golden" `Quick test_queue_golden;
    Alcotest.test_case "shadows" `Quick test_shadows;
    Alcotest.test_case "sparse radio-only node" `Quick test_sparse_radio_only;
  ]
