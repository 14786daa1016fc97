(* Profilekit.Transport: the fault-injecting probe link.  Everything here
   is deterministic — the transport draws only from its own per-stage
   Stats.Rng streams — so every assertion is on exact values. *)

open Mote_lang.Ast.Dsl
module Compile = Mote_lang.Compile
module Asm = Mote_isa.Asm
module Machine = Mote_machine.Machine
module Devices = Mote_machine.Devices
module Probes = Profilekit.Probes
module Transport = Profilekit.Transport

(* A task with a branch and a callee, so the log holds nested windows. *)
let program =
  {
    Mote_lang.Ast.globals = [ ("acc", 0) ];
    arrays = [];
    procs =
      [
        proc "leaf" ~params:[ "x" ] ~locals:[] [ return (v "x" +: i 1) ];
        proc "task" ~params:[] ~locals:[ "x" ]
          [
            set "x" (sensor 0);
            if_ (v "x" >: i 100)
              [ set "acc" (v "acc" +: fn "leaf" [ v "x" ]) ]
              [ set "acc" (v "acc" +: i 1) ];
          ];
      ];
  }

let probe_log =
  lazy
    (let c = Compile.compile program in
     let inst = Asm.assemble (Probes.instrument c.Compile.items) in
     let devices = Devices.create () in
     let m = Machine.create ~program:inst ~devices () in
     ignore (Machine.run_proc m Compile.init_proc_name);
     for _ = 1 to 200 do
       ignore (Machine.run_proc m "task")
     done;
     Devices.probe_log devices)

(* Every fault stage switched on at once. *)
let stormy =
  {
    Transport.reboot = 0.01;
    burst_enter = 0.05;
    drop = 0.1;
    corrupt = 0.05;
    duplicate = 0.05;
    reorder = 0.1;
  }

let test_identity () =
  let log = Lazy.force probe_log in
  let out, stats = Transport.perturb ~seed:99 Transport.default log in
  Alcotest.(check bool) "log unchanged" true (out = log);
  Alcotest.(check int) "sent" (List.length log) stats.Transport.sent;
  Alcotest.(check int) "delivered" (List.length log) stats.Transport.delivered;
  Alcotest.(check int) "no drops" 0
    (stats.Transport.dropped_drop + stats.Transport.dropped_burst
   + stats.Transport.dropped_reboot);
  Alcotest.(check int) "nothing corrupted" 0 stats.Transport.corrupted;
  Alcotest.(check int) "nothing duplicated" 0 stats.Transport.duplicated;
  Alcotest.(check int) "nothing reordered" 0 stats.Transport.reordered

let test_determinism () =
  let log = Lazy.force probe_log in
  let a = Transport.perturb ~seed:7 stormy log in
  let b = Transport.perturb ~seed:7 stormy log in
  Alcotest.(check bool) "same seed, same output" true (a = b);
  let c, _ = Transport.perturb ~seed:8 stormy log in
  Alcotest.(check bool) "different seed, different log" false (fst a = c)

let test_accounting () =
  let log = Lazy.force probe_log in
  let out, s = Transport.perturb ~seed:7 stormy log in
  Alcotest.(check int) "sent is the input" (List.length log) s.Transport.sent;
  Alcotest.(check int) "delivered is the output" (List.length out) s.Transport.delivered;
  Alcotest.(check int) "conservation" s.Transport.delivered
    (s.Transport.sent + s.Transport.duplicated - s.Transport.dropped_drop
   - s.Transport.dropped_burst - s.Transport.dropped_reboot)

(* A stage whose rate is zero must not fire, whatever the others do. *)
let test_stage_isolation () =
  let log = Lazy.force probe_log in
  let _, s =
    Transport.perturb ~seed:7 { Transport.default with Transport.drop = 0.2 } log
  in
  Alcotest.(check bool) "drop fired" true (s.Transport.dropped_drop > 0);
  Alcotest.(check int) "no bursts" 0 s.Transport.dropped_burst;
  Alcotest.(check int) "no reboots" 0 s.Transport.reboots;
  Alcotest.(check int) "no corruption" 0 s.Transport.corrupted;
  Alcotest.(check int) "no duplicates" 0 s.Transport.duplicated;
  Alcotest.(check int) "no reorders" 0 s.Transport.reordered;
  let out, s =
    Transport.perturb ~seed:7 { Transport.default with Transport.corrupt = 0.2 } log
  in
  Alcotest.(check bool) "corruption fired" true (s.Transport.corrupted > 0);
  Alcotest.(check int) "corruption loses nothing" (List.length log) (List.length out)

(* The drop stage draws from its own stream: changing the corruption rate
   must not move which records are lost. *)
let test_stream_independence () =
  let log = Lazy.force probe_log in
  let drops config =
    let _, s = Transport.perturb ~seed:7 config log in
    s.Transport.dropped_drop
  in
  let base = { Transport.default with Transport.drop = 0.1 } in
  Alcotest.(check int) "same drop pattern"
    (drops base)
    (drops { base with Transport.corrupt = 0.3; Transport.duplicate = 0.2 })

(* A rate that is not a probability is a configuration error, not a
   quiet no-op or a saturated link: every probability field, each of the
   three ways out of range. *)
let test_rates_validated () =
  let log = Lazy.force probe_log in
  let d = Transport.default in
  let setters =
    [
      ("drop", fun p -> { d with Transport.drop = p });
      ("corrupt", fun p -> { d with Transport.corrupt = p });
      ("duplicate", fun p -> { d with Transport.duplicate = p });
      ("reorder", fun p -> { d with Transport.reorder = p });
      ("reboot", fun p -> { d with Transport.reboot = p });
      ("burst_enter", fun p -> { d with Transport.burst_enter = p });
    ]
  in
  List.iter
    (fun (name, set) ->
      List.iter
        (fun p ->
          match Transport.perturb ~seed:7 (set p) log with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s = %g accepted" name p)
        [ 1.5; -0.5; Float.nan ];
      (* Both ends of [0,1] are rates. *)
      List.iter (fun p -> ignore (Transport.perturb ~seed:7 (set p) log)) [ 0.0; 1.0 ])
    setters

(* The full faulted pipeline is byte-identical at any domain count. *)
let test_pipeline_determinism_across_domains () =
  let module P = Codetomo.Pipeline in
  let config =
    {
      P.default_config with
      P.horizon = Some 300_000;
      P.faults = Some (Transport.field ());
    }
  in
  let estimate domains =
    let s = Codetomo.Session.create ~domains () in
    let est =
      Codetomo.Session.estimate s
        ~opts:
          {
            P.default_opts with
            P.sanitize = true;
            robust = true;
            min_samples = 8;
          }
        ~config Workloads.filter
    in
    Codetomo.Session.close s;
    est
  in
  Alcotest.(check bool) "serial = 4 domains" true (estimate 1 = estimate 4)

let suite =
  [
    Alcotest.test_case "identity" `Quick test_identity;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "accounting" `Quick test_accounting;
    Alcotest.test_case "stage isolation" `Quick test_stage_isolation;
    Alcotest.test_case "stream independence" `Quick test_stream_independence;
    Alcotest.test_case "rates validated" `Quick test_rates_validated;
    Alcotest.test_case "faulted pipeline across domains" `Slow
      test_pipeline_determinism_across_domains;
  ]
