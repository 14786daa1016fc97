(* Mote_os.Network: multi-node simulation over lossy links. *)

open Mote_lang.Ast.Dsl
module Node = Mote_os.Node
module Network = Mote_os.Network
module Compile = Mote_lang.Compile
module Machine = Mote_machine.Machine
module Devices = Mote_machine.Devices

let sender_program =
  {
    Mote_lang.Ast.globals = [ ("n", 0) ];
    arrays = [];
    procs =
      [
        proc "beacon" ~params:[] ~locals:[]
          [ set "n" (v "n" +: i 1); send (v "n") ];
      ];
  }

let receiver_program =
  {
    Mote_lang.Ast.globals = [ ("got", 0); ("last", 0) ];
    arrays = [];
    procs =
      [
        proc "rx" ~params:[] ~locals:[ "p" ]
          [
            set "p" radio_rx;
            set "got" (v "got" +: i 1);
            set "last" (v "p");
          ];
      ];
  }

let relay_program =
  {
    Mote_lang.Ast.globals = [ ("fwd", 0) ];
    arrays = [];
    procs =
      [
        proc "rx" ~params:[] ~locals:[ "p" ]
          [ set "p" radio_rx; send (v "p" +: i 100); set "fwd" (v "fwd" +: i 1) ];
      ];
  }

let make_node ?(tasks = []) program =
  let c = Compile.compile program in
  let devices = Devices.create () in
  let machine = Machine.create ~program:c.Compile.program ~devices () in
  let env = Env.create { Env.seed = 1; channels = []; radio = Env.Silent } in
  (c, Node.create ~machine ~env ~tasks ())

let read_global (c, node) ~proc name =
  Machine.read_mem (Node.machine node) (Compile.var_address c ~proc name)

let sender () =
  make_node
    ~tasks:[ { Node.proc = "beacon"; source = Node.Periodic { period = 5003; offset = 11 } } ]
    sender_program

let receiver () =
  make_node ~tasks:[ { Node.proc = "rx"; source = Node.On_radio_rx } ] receiver_program

let relay () =
  make_node ~tasks:[ { Node.proc = "rx"; source = Node.On_radio_rx } ] relay_program

let test_lossless_delivery () =
  let _, s = sender () in
  let ((_, r) as rx) = receiver () in
  let net =
    Network.create ~nodes:[ s; r ]
      ~links:[ { Network.src = 0; dst = 1; loss = 0.0; delay = 50 } ]
      ()
  in
  let stats = Network.run net ~until:200_000 in
  Alcotest.(check bool) "packets sent" true (stats.Network.sent > 30);
  Alcotest.(check int) "all delivered" stats.Network.sent stats.Network.delivered;
  Alcotest.(check int) "zero lost" 0 stats.Network.lost;
  Alcotest.(check int) "receiver counted them" stats.Network.delivered
    (read_global rx ~proc:"rx" "got");
  ignore r

let test_lossy_link () =
  let _, s = sender () in
  let _, r = receiver () in
  let net =
    Network.create ~seed:3 ~nodes:[ s; r ]
      ~links:[ { Network.src = 0; dst = 1; loss = 0.5; delay = 10 } ]
      ()
  in
  let stats = Network.run net ~until:600_000 in
  let ratio = float_of_int stats.Network.delivered /. float_of_int stats.Network.sent in
  Alcotest.(check bool)
    (Printf.sprintf "about half delivered (%.2f)" ratio)
    true
    (ratio > 0.3 && ratio < 0.7);
  Alcotest.(check int) "lost + delivered = sent" stats.Network.sent
    (stats.Network.delivered + stats.Network.lost)

let test_multihop_relay () =
  let _, s = sender () in
  let ((_, rl) as relay_node) = relay () in
  let ((_, r) as rx) = receiver () in
  let net =
    Network.create ~nodes:[ s; rl; r ]
      ~links:
        [
          { Network.src = 0; dst = 1; loss = 0.0; delay = 20 };
          { Network.src = 1; dst = 2; loss = 0.0; delay = 20 };
        ]
      ()
  in
  ignore (Network.run net ~until:300_000);
  let forwarded = read_global relay_node ~proc:"rx" "fwd" in
  let got = read_global rx ~proc:"rx" "got" in
  Alcotest.(check bool) "relay forwarded" true (forwarded > 30);
  Alcotest.(check int) "sink got everything the relay sent" forwarded got;
  (* Payload transformation survives the two hops. *)
  Alcotest.(check bool) "payload offset applied" true
    (read_global rx ~proc:"rx" "last" > 100);
  ignore r

let test_broadcast () =
  let _, s = sender () in
  let ((_, r1) as rx1) = receiver () in
  let ((_, r2) as rx2) = receiver () in
  let net =
    Network.create ~nodes:[ s; r1; r2 ]
      ~links:
        [
          { Network.src = 0; dst = 1; loss = 0.0; delay = 5 };
          { Network.src = 0; dst = 2; loss = 0.0; delay = 5 };
        ]
      ()
  in
  let stats = Network.run net ~until:100_000 in
  Alcotest.(check int) "both receivers" (2 * stats.Network.sent) stats.Network.delivered;
  Alcotest.(check int) "r1 = r2"
    (read_global rx1 ~proc:"rx" "got")
    (read_global rx2 ~proc:"rx" "got")

let test_link_validation () =
  let _, s = sender () in
  let bad links =
    match Network.create ~nodes:[ s ] ~links () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "dangling endpoint" true
    (bad [ { Network.src = 0; dst = 3; loss = 0.0; delay = 0 } ]);
  Alcotest.(check bool) "bad loss" true
    (bad [ { Network.src = 0; dst = 0; loss = 1.5; delay = 0 } ]);
  Alcotest.(check bool) "self link" true
    (bad [ { Network.src = 0; dst = 0; loss = 0.0; delay = 0 } ])

let test_run_determinism () =
  let run_once () =
    let _, s = sender () in
    let ((_, r) as rx) = receiver () in
    let net =
      Network.create ~seed:9 ~nodes:[ s; r ]
        ~links:[ { Network.src = 0; dst = 1; loss = 0.3; delay = 40 } ]
        ()
    in
    ignore (Network.run net ~until:300_000);
    read_global rx ~proc:"rx" "got"
  in
  Alcotest.(check int) "deterministic" (run_once ()) (run_once ())

let suite =
  [
    Alcotest.test_case "lossless delivery" `Quick test_lossless_delivery;
    Alcotest.test_case "lossy link" `Quick test_lossy_link;
    Alcotest.test_case "multihop relay" `Quick test_multihop_relay;
    Alcotest.test_case "broadcast" `Quick test_broadcast;
    Alcotest.test_case "link validation" `Quick test_link_validation;
    Alcotest.test_case "determinism" `Quick test_run_determinism;
  ]

let test_delay_honored () =
  (* With a huge delay, nothing can be delivered before the deadline. *)
  let _, s = sender () in
  let ((_, r) as rx) = receiver () in
  let net =
    Network.create ~nodes:[ s; r ]
      ~links:[ { Network.src = 0; dst = 1; loss = 0.0; delay = 1_000_000 } ]
      ()
  in
  let stats = Network.run net ~until:100_000 in
  Alcotest.(check bool) "sent" true (stats.Network.sent > 0);
  Alcotest.(check int) "nothing received yet" 0 (read_global rx ~proc:"rx" "got");
  (* Extending past the delay delivers them. *)
  ignore (Network.run net ~until:1_200_000);
  Alcotest.(check bool) "delivered after delay" true
    (read_global rx ~proc:"rx" "got" > 0)

(* A short quantum drains the sender thousands of times: every word is
   routed exactly once and in order. *)
let test_many_drains () =
  let ((_, s) as tx) = sender () in
  let ((_, r) as rx) = receiver () in
  let net =
    Network.create ~nodes:[ s; r ]
      ~links:[ { Network.src = 0; dst = 1; loss = 0.0; delay = 50 } ]
      ()
  in
  let stats = Network.run ~quantum:100 net ~until:300_000 in
  let sent = read_global tx ~proc:"beacon" "n" in
  Alcotest.(check bool) "dozens of words" true (sent > 50);
  Alcotest.(check int) "every word handed over once" sent stats.Network.sent;
  Alcotest.(check int) "every word delivered" sent (read_global rx ~proc:"rx" "got");
  Alcotest.(check int) "last word last" sent (read_global rx ~proc:"rx" "last")

let suite =
  suite
  @ [
      Alcotest.test_case "delay honored" `Quick test_delay_honored;
      Alcotest.test_case "many drains" `Quick test_many_drains;
    ]
