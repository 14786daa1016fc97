(* Cfgir: CFG recovery, dominators, loops, Freq. *)

module Isa = Mote_isa.Isa
module Asm = Mote_isa.Asm
module Program = Mote_isa.Program
module Cfg = Cfgir.Cfg
module Freq = Cfgir.Freq

(* Diamond: entry branches to two arms that rejoin and return.
     B0: cmp, br -> B2 (taken) | B1 (fall)
     B1: movi, jmp B3
     B2: movi (falls into B3)
     B3: ret *)
let diamond_items =
  [
    Asm.Proc "f";
    Asm.cmpi 0 0;
    Asm.br Isa.Eq "arm2";
    Asm.movi 1 10;
    Asm.jmp "join";
    Asm.Label "arm2";
    Asm.movi 1 20;
    Asm.Label "join";
    Asm.ret;
  ]

let diamond () =
  let p = Asm.assemble diamond_items in
  Cfg.of_proc_name p "f"

(* Loop: while-style top-test loop. *)
let loop_items =
  [
    Asm.Proc "g";
    Asm.movi 0 5;
    Asm.Label "head";
    Asm.cmpi 0 0;
    Asm.br Isa.Le "exit";
    Asm.subi 0 0 1;
    Asm.jmp "head";
    Asm.Label "exit";
    Asm.ret;
  ]

let loop_cfg () =
  let p = Asm.assemble loop_items in
  Cfg.of_proc_name p "g"

let test_diamond_structure () =
  let cfg = diamond () in
  Alcotest.(check int) "blocks" 4 (Cfg.num_blocks cfg);
  (match (Cfg.block cfg 0).Cfg.term with
  | Cfg.T_branch (Isa.Eq, 2, 1) -> ()
  | _ -> Alcotest.fail "entry terminator");
  (match (Cfg.block cfg 1).Cfg.term with
  | Cfg.T_jump 3 -> ()
  | _ -> Alcotest.fail "arm1 jump");
  (match (Cfg.block cfg 2).Cfg.term with
  | Cfg.T_fall 3 -> ()
  | _ -> Alcotest.fail "arm2 fall");
  match (Cfg.block cfg 3).Cfg.term with
  | Cfg.T_ret -> ()
  | _ -> Alcotest.fail "join ret"

let test_diamond_edges () =
  let cfg = diamond () in
  Alcotest.(check int) "edge count" 4 (List.length (Cfg.edges cfg));
  Alcotest.(check (list int)) "preds of join" [ 1; 2 ] cfg.Cfg.preds.(3);
  Alcotest.(check (list int)) "branch blocks" [ 0 ] (Cfg.branch_blocks cfg);
  Alcotest.(check (list int)) "exit blocks" [ 3 ] (Cfg.exit_blocks cfg)

let test_diamond_is_dag () =
  let cfg = diamond () in
  Alcotest.(check (list (pair int int))) "no back edges" [] (Cfg.back_edges cfg);
  Alcotest.(check (list int)) "no loop headers" [] (Cfg.loop_headers cfg)

let test_diamond_dominators () =
  let cfg = diamond () in
  let dom = Cfg.dominators cfg in
  Alcotest.(check (list int)) "entry" [ 0 ] dom.(0);
  Alcotest.(check (list int)) "arm1" [ 0; 1 ] dom.(1);
  Alcotest.(check (list int)) "join dominated only by entry" [ 0; 3 ] dom.(3)

let test_loop_detection () =
  let cfg = loop_cfg () in
  (* Back edge from the jmp block to the loop header (block 1). *)
  (match Cfg.back_edges cfg with
  | [ (_, header) ] -> Alcotest.(check int) "header" 1 header
  | _ -> Alcotest.fail "expected exactly one back edge");
  Alcotest.(check (list int)) "headers" [ 1 ] (Cfg.loop_headers cfg)

let test_block_costs () =
  let cfg = diamond () in
  (* Entry: cmpi(1) + br(1) = 2 cycles. *)
  Alcotest.(check int) "entry cost" 2 (Cfg.block cfg 0).Cfg.base_cost;
  (* Arm1: movi(1) + jmp(1). *)
  Alcotest.(check int) "arm1 cost" 2 (Cfg.block cfg 1).Cfg.base_cost;
  (* Join: ret(2). *)
  Alcotest.(check int) "join cost" 2 (Cfg.block cfg 3).Cfg.base_cost

let test_callees () =
  let p =
    Asm.assemble
      [
        Asm.Proc "f"; Asm.call "h"; Asm.call "h"; Asm.ret; Asm.Proc "h"; Asm.ret;
      ]
  in
  let cfg = Cfg.of_proc_name p "f" in
  Alcotest.(check (list string)) "callees" [ "h"; "h" ] (Cfg.block cfg 0).Cfg.callees

let test_escaping_branch_rejected () =
  let p =
    Asm.assemble
      [ Asm.Proc "f"; Asm.cmpi 0 0; Asm.br Isa.Eq "target"; Asm.ret; Asm.Proc "g"; Asm.Label "target"; Asm.ret ]
  in
  Alcotest.(check bool) "malformed" true
    (match Cfg.of_proc_name p "f" with
    | _ -> false
    | exception Cfg.Malformed _ -> true)

let test_reachability () =
  (* Dead block after ret. *)
  let p =
    Asm.assemble [ Asm.Proc "f"; Asm.ret; Asm.movi 0 1; Asm.ret ]
  in
  let cfg = Cfg.of_proc_name p "f" in
  let r = Cfg.reachable cfg in
  Alcotest.(check bool) "entry reachable" true r.(0);
  Alcotest.(check bool) "dead block" false r.(1)

let test_to_dot () =
  let dot = Cfg.to_dot (diamond ()) in
  Alcotest.(check bool) "has digraph" true (String.length dot > 20);
  Alcotest.(check bool) "has edges" true
    (String.split_on_char '\n' dot |> List.exists (fun l -> String.length l > 2))

let test_of_program () =
  let p =
    Asm.assemble [ Asm.Proc "a"; Asm.ret; Asm.Proc "b"; Asm.ret ]
  in
  Alcotest.(check int) "two cfgs" 2 (List.length (Cfg.of_program p))

(* --- Freq --- *)

let test_freq_basic () =
  let cfg = diamond () in
  let f = Freq.create cfg ~invocations:10.0 in
  Freq.bump f ~src:0 ~dst:2 ~kind:Cfg.K_taken 7.0;
  Freq.bump f ~src:0 ~dst:1 ~kind:Cfg.K_fall 3.0;
  Freq.bump f ~src:1 ~dst:3 ~kind:Cfg.K_jump 3.0;
  Freq.bump f ~src:2 ~dst:3 ~kind:Cfg.K_fall 7.0;
  Alcotest.(check (float 1e-9)) "taken prob" 0.7 (Freq.taken_probability f 0);
  let visits = Freq.block_visits f in
  Alcotest.(check (float 1e-9)) "entry visits" 10.0 visits.(0);
  Alcotest.(check (float 1e-9)) "join visits" 10.0 visits.(3);
  Alcotest.(check (array (float 1e-9))) "theta vector" [| 0.7 |] (Freq.theta_vector f)

let test_freq_unknown_edge () =
  let cfg = diamond () in
  let f = Freq.create cfg ~invocations:1.0 in
  Alcotest.(check bool) "bad edge rejected" true
    (match Freq.bump f ~src:3 ~dst:0 ~kind:Cfg.K_jump 1.0 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_freq_default_theta () =
  let cfg = diamond () in
  let f = Freq.create cfg ~invocations:0.0 in
  Alcotest.(check (float 1e-9)) "unvisited branch is 0.5" 0.5 (Freq.taken_probability f 0)

let test_freq_non_branch_theta () =
  let cfg = diamond () in
  let f = Freq.create cfg ~invocations:1.0 in
  Alcotest.(check bool) "non-branch rejected" true
    (match Freq.taken_probability f 1 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "diamond structure" `Quick test_diamond_structure;
    Alcotest.test_case "diamond edges" `Quick test_diamond_edges;
    Alcotest.test_case "diamond is dag" `Quick test_diamond_is_dag;
    Alcotest.test_case "diamond dominators" `Quick test_diamond_dominators;
    Alcotest.test_case "loop detection" `Quick test_loop_detection;
    Alcotest.test_case "block costs" `Quick test_block_costs;
    Alcotest.test_case "callees" `Quick test_callees;
    Alcotest.test_case "escaping branch" `Quick test_escaping_branch_rejected;
    Alcotest.test_case "reachability" `Quick test_reachability;
    Alcotest.test_case "to_dot" `Quick test_to_dot;
    Alcotest.test_case "of_program" `Quick test_of_program;
    Alcotest.test_case "freq basic" `Quick test_freq_basic;
    Alcotest.test_case "freq unknown edge" `Quick test_freq_unknown_edge;
    Alcotest.test_case "freq default theta" `Quick test_freq_default_theta;
    Alcotest.test_case "freq non-branch theta" `Quick test_freq_non_branch_theta;
  ]

(* --- Profile_io persistence --- *)

module Pio = Cfgir.Profile_io

let persisted_pair () =
  let program = Mote_isa.Asm.assemble diamond_items in
  let cfg = Cfg.of_proc_name program "f" in
  let f = Freq.create cfg ~invocations:10.0 in
  Freq.bump f ~src:0 ~dst:2 ~kind:Cfg.K_taken 7.0;
  Freq.bump f ~src:0 ~dst:1 ~kind:Cfg.K_fall 3.0;
  Freq.bump f ~src:1 ~dst:3 ~kind:Cfg.K_jump 3.0;
  Freq.bump f ~src:2 ~dst:3 ~kind:Cfg.K_fall 7.0;
  (cfg, f)

let test_profile_io_roundtrip () =
  let cfg, f = persisted_pair () in
  let text = Pio.to_string [ ("f", f) ] in
  let restored = Pio.of_string ~lookup:(fun _ -> Some cfg) text in
  match restored with
  | [ ("f", g) ] ->
      Alcotest.(check (float 1e-6)) "invocations" 10.0 (Freq.invocations g);
      List.iter2
        (fun (_, a) (_, b) -> Alcotest.(check (float 1e-6)) "weight" a b)
        (Freq.weights f) (Freq.weights g)
  | _ -> Alcotest.fail "expected one profile"

let test_profile_io_file_roundtrip () =
  let cfg, f = persisted_pair () in
  let path = Filename.temp_file "codetomo" ".prof" in
  Pio.save ~path [ ("f", f) ];
  let restored = Pio.load ~path ~lookup:(fun _ -> Some cfg) in
  Sys.remove path;
  Alcotest.(check int) "one profile" 1 (List.length restored)

let test_profile_io_unknown_proc_skipped () =
  let cfg, f = persisted_pair () in
  let text = Pio.to_string [ ("f", f) ] in
  ignore cfg;
  Alcotest.(check int) "skipped" 0 (List.length (Pio.of_string ~lookup:(fun _ -> None) text))

let test_profile_io_stale_detected () =
  let _, f = persisted_pair () in
  let text = Pio.to_string [ ("f", f) ] in
  (* Attach to a structurally different CFG (the loop program, 3 blocks). *)
  let other = Cfg.of_proc_name (Mote_isa.Asm.assemble loop_items) "g" in
  Alcotest.(check bool) "stale rejected" true
    (match Pio.of_string ~lookup:(fun _ -> Some other) text with
    | _ -> false
    | exception Pio.Format_error _ -> true)

let test_profile_io_syntax_errors () =
  let bad text =
    match Pio.of_string ~lookup:(fun _ -> None) text with
    | _ -> false
    | exception Pio.Format_error _ -> true
  in
  Alcotest.(check bool) "missing header" true (bad "proc f blocks 2 invocations 1\n");
  Alcotest.(check bool) "garbage line" true (bad "codetomo-profile 1\nwat\n");
  Alcotest.(check bool) "edge before proc" true
    (bad "codetomo-profile 1\nedge 0 1 fall 1.0\n")

let test_profile_io_bad_counts () =
  let cfg, _ = persisted_pair () in
  let message text =
    match Pio.of_string ~lookup:(fun _ -> Some cfg) text with
    | _ -> Alcotest.fail "expected Format_error"
    | exception Pio.Format_error m -> m
  in
  let with_weight w =
    Printf.sprintf "codetomo-profile 1\nproc f blocks 4 invocations 10\nedge 0 2 taken %s\n" w
  in
  let with_invocations n = Printf.sprintf "codetomo-profile 1\nproc f blocks 4 invocations %s\n" n in
  List.iter
    (fun w ->
      Alcotest.(check string) ("weight " ^ w)
        (Printf.sprintf "bad weight %S: not a finite non-negative number" w)
        (message (with_weight w)))
    [ "nan"; "inf"; "-inf"; "-5"; "x" ];
  List.iter
    (fun n ->
      Alcotest.(check string) ("invocations " ^ n)
        (Printf.sprintf "bad invocation count %S: not a finite non-negative number" n)
        (message (with_invocations n)))
    [ "nan"; "inf"; "-1"; "x" ];
  (* Zero is a count like any other. *)
  Alcotest.(check int) "zero weight accepted" 1
    (List.length (Pio.of_string ~lookup:(fun _ -> Some cfg) (with_weight "0")))

let suite =
  suite
  @ [
      Alcotest.test_case "profile io roundtrip" `Quick test_profile_io_roundtrip;
      Alcotest.test_case "profile io file" `Quick test_profile_io_file_roundtrip;
      Alcotest.test_case "profile io unknown proc" `Quick test_profile_io_unknown_proc_skipped;
      Alcotest.test_case "profile io stale" `Quick test_profile_io_stale_detected;
      Alcotest.test_case "profile io syntax" `Quick test_profile_io_syntax_errors;
      Alcotest.test_case "profile io bad counts" `Quick test_profile_io_bad_counts;
    ]
