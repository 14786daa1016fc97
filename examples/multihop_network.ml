(* Multi-hop collection tree: two leaf sensors stream packets through a
   CTP-style relay to a sink, over lossy links.  The relay is the node
   whose code placement matters (it handles every packet), so we:

     1. run the network with a probe-instrumented relay and estimate the
        relay's branch probabilities from its end-to-end timings under
        *real* multi-hop traffic (not a synthetic arrival model);
     2. rewrite the relay's binary with the estimated profile;
     3. re-run the same network and measure the relay's taken transfers.

   Run with:  dune exec examples/multihop_network.exe *)

open Mote_lang.Ast.Dsl
module Node = Mote_os.Node
module Network = Mote_os.Network
module Machine = Mote_machine.Machine
module Devices = Mote_machine.Devices
module Compile = Mote_lang.Compile
module P = Codetomo.Pipeline

(* Leaves emit CTP data packets: kind bits 0, hop count in bits 2..5,
   reading above.  One leaf also gossips beacons (kind 1). *)
let leaf_program ~beacons =
  {
    Mote_lang.Ast.globals = [ ("seq", 0) ];
    arrays = [];
    procs =
      [
        proc "sample" ~params:[] ~locals:[ "valu" ]
          ([
             set "seq" (v "seq" +: i 1);
             set "valu" (sensor 0);
             (* data packet: reading in high bits, hops start at 1 *)
             send (((v "valu" &: i 255) <<: i 6) |: (i 1 <<: i 2));
           ]
          @
          if beacons then
            [ when_ ((v "seq" &: i 7) =: i 0) [ send ((i 12 <<: i 2) |: i 1) ] ]
          else []);
      ];
  }

let sink_program =
  {
    Mote_lang.Ast.globals = [ ("collected", 0) ];
    arrays = [];
    procs =
      [
        proc "rx" ~params:[] ~locals:[ "p" ]
          [ set "p" radio_rx; set "collected" (v "collected" +: i 1) ];
      ];
  }

let make_node ?(seed = 1) ?(channels = []) program tasks =
  let c = Compile.compile program in
  let devices = Devices.create () in
  let machine = Machine.create ~program:c.Compile.program ~devices () in
  let env = Env.create { Env.seed; channels; radio = Env.Silent } in
  (c, Node.create ~machine ~env ~tasks ())

let make_relay binary =
  let devices = Devices.create () in
  let machine = Machine.create ~program:binary ~devices () in
  let env = Env.create { Env.seed = 5; channels = []; radio = Env.Silent } in
  let tasks =
    [
      { Node.proc = "ctp_rx_task"; source = Node.On_radio_rx };
      { Node.proc = "ctp_beacon_task"; source = Node.Periodic { period = 19997; offset = 513 } };
    ]
  in
  (machine, Node.create ~machine ~env ~tasks ())

let build_network ~relay_binary ~net_seed =
  let gauss = [ (0, Env.Gaussian { mu = 520.0; sigma = 130.0 }) ] in
  let _, leaf_a =
    make_node ~seed:21 ~channels:gauss (leaf_program ~beacons:false)
      [ { Node.proc = "sample"; source = Node.Periodic { period = 1733; offset = 3 } } ]
  in
  let _, leaf_b =
    make_node ~seed:22 ~channels:gauss (leaf_program ~beacons:true)
      [ { Node.proc = "sample"; source = Node.Periodic { period = 2389; offset = 101 } } ]
  in
  let relay_machine, relay = make_relay relay_binary in
  let sink_c, sink = make_node ~seed:23 sink_program [ { Node.proc = "rx"; source = Node.On_radio_rx } ] in
  let net =
    Network.create ~seed:net_seed
      ~nodes:[ leaf_a; leaf_b; relay; sink ]
      ~links:
        [
          { Network.src = 0; dst = 2; loss = 0.05; delay = 120 };
          { Network.src = 1; dst = 2; loss = 0.10; delay = 140 };
          { Network.src = 2; dst = 3; loss = 0.02; delay = 90 };
        ]
      ()
  in
  (net, relay_machine, (sink_c, sink))

let horizon = 3_000_000

let () =
  let ctp = Workloads.ctp in
  let compiled = Workloads.compiled ctp in

  (* Phase 1: profile the relay in situ. *)
  let instrumented =
    Mote_isa.Asm.assemble (Profilekit.Probes.instrument compiled.Compile.items)
  in
  let net, relay_machine, _ = build_network ~relay_binary:instrumented ~net_seed:77 in
  let oracle = Profilekit.Oracle.attach relay_machine in
  let net_stats = Network.run net ~until:horizon in
  Printf.printf "profiling run: %d packets sent, %d delivered, %d lost on air\n"
    net_stats.Network.sent net_stats.Network.delivered net_stats.Network.lost;
  let samples =
    Profilekit.Probes.(
      samples_for (collect ~program:instrumented ~devices:(Machine.devices relay_machine)))
      "ctp_rx_task"
  in
  Printf.printf "relay rx task: %d timing samples\n" (Array.length samples);
  let model = Tomo.Model.of_cfg (Cfgir.Cfg.of_proc_name instrumented "ctp_rx_task") in
  let paths = Tomo.Paths.enumerate ~max_paths:20000 model in
  let est = Tomo.Em.estimate paths ~samples in
  let truth = Profilekit.Oracle.theta_vector oracle ~proc:"ctp_rx_task" in
  Printf.printf "estimated theta: [%s]\noracle theta:    [%s]\nMAE %.4f\n\n"
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.3f") est.Tomo.Em.theta)))
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.3f") truth)))
    (Stats.Metrics.mae est.Tomo.Em.theta truth);

  (* Phase 2: rewrite the relay with the estimated profile and re-run. *)
  let original = compiled.Compile.program in
  let freq =
    P.freq_of_theta original ~proc:"ctp_rx_task" ~theta:est.Tomo.Em.theta
      ~invocations:(float_of_int (Array.length samples))
  in
  let placed =
    Layout.Rewrite.program original
      ~placements:[ ("ctp_rx_task", Layout.Algorithms.pettis_hansen freq) ]
  in
  let evaluate label binary =
    let net, relay_machine, (sink_c, sink) = build_network ~relay_binary:binary ~net_seed:78 in
    ignore (Network.run net ~until:horizon);
    let stats = Machine.stats relay_machine in
    let collected =
      Machine.read_mem (Node.machine sink)
        (Compile.var_address sink_c ~proc:"rx" "collected")
    in
    Printf.printf
      "%-12s relay taken transfers %5d (of %5d branch executions)   sink collected %d\n"
      label
      (stats.Machine.taken_cond_branches + stats.Machine.unconditional_transfers)
      stats.Machine.cond_branches collected
  in
  (* Note: two of the relay's branch parameters are cost-aliased (their
     arms compile to identical cycle counts), so the estimate above can
     diverge from the oracle on those coordinates while still ranking the
     hot edges correctly — which is all the placement pass needs. *)
  evaluate "natural" original;
  evaluate "tomography" placed
