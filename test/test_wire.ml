(* Profilekit.Wire: the versioned probe-batch format.  A base station
   must never misparse an uplink batch: round-trips are exact, and every
   malformed or wrong-version input fails with the typed error, and a
   decoded batch collects exactly like the log it was encoded from. *)

open Mote_lang.Ast.Dsl
module Compile = Mote_lang.Compile
module Asm = Mote_isa.Asm
module Machine = Mote_machine.Machine
module Devices = Mote_machine.Devices
module Probes = Profilekit.Probes
module Wire = Profilekit.Wire

let record pc cycles value = { Devices.pc; cycles; value }

let check_records msg expected actual =
  Alcotest.(check (list (triple int int int)))
    msg
    (List.map (fun r -> (r.Devices.pc, r.Devices.cycles, r.Devices.value)) expected)
    (List.map (fun r -> (r.Devices.pc, r.Devices.cycles, r.Devices.value)) actual)

let roundtrip () =
  let records =
    [
      record 0 0 0;
      record 17 1234 42;
      record 65535 999_999_999 65535;
      (* cycles occupy 48 bits on the wire *)
      record 3 ((1 lsl 48) - 1) 7;
    ]
  in
  match Wire.decode (Wire.encode records) with
  | Ok got -> check_records "roundtrip" records got
  | Error e -> Alcotest.failf "decode failed: %s" (Wire.error_to_string e)

let roundtrip_empty () =
  match Wire.decode (Wire.encode []) with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty batch decoded to records"
  | Error e -> Alcotest.failf "decode failed: %s" (Wire.error_to_string e)

let bad_magic () =
  let b = Bytes.of_string (Wire.encode [ record 1 2 3 ]) in
  Bytes.set b 0 'X';
  match Wire.decode (Bytes.to_string b) with
  | Error Wire.Bad_magic -> ()
  | Ok _ | Error _ -> Alcotest.fail "corrupted magic accepted"

let unsupported_version () =
  let b = Bytes.of_string (Wire.encode [ record 1 2 3 ]) in
  (* bump the big-endian u16 version at offset 4 *)
  Bytes.set b 4 '\000';
  Bytes.set b 5 '\002';
  match Wire.decode (Bytes.to_string b) with
  | Error (Wire.Unsupported_version 2) -> ()
  | Ok _ | Error _ -> Alcotest.fail "future version accepted"

let truncated () =
  let s = Wire.encode [ record 1 2 3; record 4 5 6 ] in
  let cut = String.sub s 0 (String.length s - 1) in
  (match Wire.decode cut with
  | Error (Wire.Truncated { expected; got }) ->
      Alcotest.(check int) "expected" (String.length s) expected;
      Alcotest.(check int) "got" (String.length s - 1) got
  | Ok _ | Error _ -> Alcotest.fail "truncated batch accepted");
  (* shorter than the header itself *)
  match Wire.decode "CTPL" with
  | Error (Wire.Truncated _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "bare magic accepted"

(* Bytes past the declared record count are not a truncation: the batch
   is over-long, and says so. *)
let overlong () =
  let s = Wire.encode [ record 1 2 3 ] in
  let trailing = s ^ "\000\000\000" in
  (match Wire.decode trailing with
  | Error (Wire.Overlong { expected; got } as e) ->
      Alcotest.(check int) "expected" (String.length s) expected;
      Alcotest.(check int) "got" (String.length s + 3) got;
      Alcotest.(check string)
        "message" "probe batch: over-long (20 bytes expected, 23 present)"
        (Wire.error_to_string e)
  | Ok _ | Error _ -> Alcotest.fail "over-long batch not reported as Overlong");
  (* a whole record the header does not declare: count 2 rewritten to 1 *)
  let two = Bytes.of_string (Wire.encode [ record 1 2 3; record 4 5 6 ]) in
  Bytes.set two 9 '\001';
  match Wire.decode (Bytes.to_string two) with
  | Error (Wire.Overlong { expected = 20; got = 30 }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "undeclared record accepted"

(* A real instrumented run, shipped through the wire and collected:
   decoding must hand the collector exactly the records of the log. *)
let program =
  {
    Mote_lang.Ast.globals = [ ("acc", 0) ];
    arrays = [];
    procs =
      [
        proc "task" ~params:[] ~locals:[ "x" ]
          [
            set "x" (sensor 0);
            if_ (v "x" >: i 100)
              [ set "acc" (v "acc" +: i 2) ]
              [ set "acc" (v "acc" +: i 1) ];
          ];
      ];
  }

let instrumented_log () =
  let c = Compile.compile program in
  let inst = Asm.assemble (Probes.instrument c.Compile.items) in
  let devices = Devices.create () in
  let m = Machine.create ~program:inst ~devices () in
  ignore (Machine.run_proc m Compile.init_proc_name);
  for _ = 1 to 50 do
    ignore (Machine.run_proc m "task")
  done;
  (inst, Devices.probe_log devices)

let collectors_agree () =
  let inst, log = instrumented_log () in
  let direct = Probes.collect_lossy_records ~program:inst ~resolution:1 log in
  let wired =
    Probes.collect_lossy_records ~program:inst ~resolution:1
      (Wire.decode_exn (Wire.encode log))
  in
  Alcotest.(check int) "nothing discarded" 0 wired.Probes.discarded;
  Alcotest.(check int) "discarded" direct.Probes.discarded wired.Probes.discarded;
  Alcotest.(check (array (float 0.0)))
    "samples"
    (Probes.samples_for direct.Probes.samples "task")
    (Probes.samples_for wired.Probes.samples "task")

let collectors_reject () =
  let _, log = instrumented_log () in
  let b = Bytes.of_string (Wire.encode log) in
  Bytes.set b 5 '\007';
  match Wire.decode_exn (Bytes.to_string b) with
  | exception Wire.Error (Wire.Unsupported_version 7) -> ()
  | _ -> Alcotest.fail "decode_exn accepted an unknown wire version"

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick roundtrip;
    Alcotest.test_case "roundtrip empty" `Quick roundtrip_empty;
    Alcotest.test_case "bad magic" `Quick bad_magic;
    Alcotest.test_case "unsupported version" `Quick unsupported_version;
    Alcotest.test_case "truncated" `Quick truncated;
    Alcotest.test_case "over-long" `Quick overlong;
    Alcotest.test_case "wire collectors agree" `Quick collectors_agree;
    Alcotest.test_case "wire collectors reject versions" `Quick collectors_reject;
  ]
