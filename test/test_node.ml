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
  ]
