(* Layout: Placement, Eval, Algorithms, Rewrite. *)

module Isa = Mote_isa.Isa
module Asm = Mote_isa.Asm
module Program = Mote_isa.Program
module Cfg = Cfgir.Cfg
module Freq = Cfgir.Freq
module Placement = Layout.Placement
module Eval = Layout.Eval
module Algorithms = Layout.Algorithms
module Rewrite = Layout.Rewrite

let diamond_program () =
  Asm.assemble
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

(* Hot path through the taken arm. *)
let hot_taken_freq cfg =
  let f = Freq.create cfg ~invocations:100.0 in
  Freq.bump f ~src:0 ~dst:2 ~kind:Cfg.K_taken 90.0;
  Freq.bump f ~src:0 ~dst:1 ~kind:Cfg.K_fall 10.0;
  Freq.bump f ~src:1 ~dst:3 ~kind:Cfg.K_jump 10.0;
  Freq.bump f ~src:2 ~dst:3 ~kind:Cfg.K_fall 90.0;
  f

let test_placement_validate () =
  let cfg = Cfg.of_proc_name (diamond_program ()) "f" in
  Placement.validate cfg [| 0; 1; 2; 3 |];
  Placement.validate cfg [| 0; 2; 3; 1 |];
  let invalid p =
    match Placement.validate cfg p with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "entry not first" true (invalid [| 1; 0; 2; 3 |]);
  Alcotest.(check bool) "wrong length" true (invalid [| 0; 1; 2 |]);
  Alcotest.(check bool) "duplicate" true (invalid [| 0; 1; 1; 3 |]);
  Alcotest.(check bool) "out of range" true (invalid [| 0; 1; 2; 9 |])

let test_placement_helpers () =
  let p = [| 0; 2; 3; 1 |] in
  Alcotest.(check (array int)) "positions" [| 0; 3; 1; 2 |] (Placement.position_of p);
  Alcotest.(check (option int)) "next of 2" (Some 3) (Placement.next_in_layout p 2);
  Alcotest.(check (option int)) "next of last" None (Placement.next_in_layout p 1)

let test_eval_natural () =
  let cfg = Cfg.of_proc_name (diamond_program ()) "f" in
  let f = hot_taken_freq cfg in
  let r = Eval.evaluate f (Placement.natural cfg) in
  (* Natural [0;1;2;3]: branch falls to B1 (weight 10), taken to B2 (90).
     B1 jumps (10 taken transfers), B2 falls to B3 adjacent? B2 next is B3:
     yes.  So taken = 90 (branch) + 10 (jump) = 100. *)
  Alcotest.(check (float 1e-9)) "taken" 100.0 r.Eval.taken_transfers;
  Alcotest.(check (float 1e-9)) "considered" 110.0 r.Eval.considered;
  Alcotest.(check int) "no bridges" 0 r.Eval.bridge_jumps

let test_eval_optimized () =
  let cfg = Cfg.of_proc_name (diamond_program ()) "f" in
  let f = hot_taken_freq cfg in
  (* Put the hot arm on the fall-through: [0;2;3;1].  Branch flips: taken
     fires for the old fall edge (10).  B2 falls to B3 adjacent.  B3 ret.
     B1 at the end: its jmp to B3 is non-adjacent: +10.  Total 20. *)
  let r = Eval.evaluate f [| 0; 2; 3; 1 |] in
  Alcotest.(check (float 1e-9)) "taken" 20.0 r.Eval.taken_transfers;
  Alcotest.(check (float 1e-9)) "rate" (20.0 /. 110.0) r.Eval.taken_rate

let test_eval_bridge_jump () =
  let cfg = Cfg.of_proc_name (diamond_program ()) "f" in
  let f = hot_taken_freq cfg in
  (* [0;3;1;2]: branch's successors are B2 (taken) and B1 (fall); next is
     B3 -> neither adjacent: bridge jump added, every execution transfers.
     taken = 90 + 10 (bridge) = 100 plus B1's jmp 10 and B2->B3 non-adjacent
     fall bridge 90. *)
  let r = Eval.evaluate f [| 0; 3; 1; 2 |] in
  Alcotest.(check (float 1e-9)) "taken" 200.0 r.Eval.taken_transfers;
  Alcotest.(check int) "bridges" 2 r.Eval.bridge_jumps

let test_eval_size_prediction_matches_rewrite () =
  let program = diamond_program () in
  let cfg = Cfg.of_proc_name program "f" in
  let f = hot_taken_freq cfg in
  List.iter
    (fun placement ->
      let predicted = (Eval.evaluate f placement).Eval.size_words in
      let rewritten = Rewrite.program program ~placements:[ ("f", placement) ] in
      Alcotest.(check int)
        (Format.asprintf "size for %a" Placement.pp placement)
        predicted (Program.flash_words rewritten))
    [ [| 0; 1; 2; 3 |]; [| 0; 2; 3; 1 |]; [| 0; 3; 1; 2 |]; [| 0; 3; 2; 1 |] ]

let test_pettis_hansen_picks_hot_chain () =
  let cfg = Cfg.of_proc_name (diamond_program ()) "f" in
  let f = hot_taken_freq cfg in
  let p = Algorithms.pettis_hansen f in
  (* The hot chain is 0 -> 2 -> 3. *)
  Alcotest.(check int) "first" 0 p.(0);
  Alcotest.(check int) "second" 2 p.(1);
  Alcotest.(check int) "third" 3 p.(2)

let test_greedy_valid_and_sensible () =
  let cfg = Cfg.of_proc_name (diamond_program ()) "f" in
  let f = hot_taken_freq cfg in
  let p = Algorithms.greedy f in
  Placement.validate cfg p;
  Alcotest.(check int) "follows hot edge" 2 p.(1)

let test_optimal_beats_or_ties_everything () =
  let cfg = Cfg.of_proc_name (diamond_program ()) "f" in
  let f = hot_taken_freq cfg in
  let best = Eval.taken_transfers f (Algorithms.optimal f) in
  let worst = Eval.taken_transfers f (Algorithms.pessimal f) in
  List.iter
    (fun algo ->
      let score = Eval.taken_transfers f (algo f) in
      Alcotest.(check bool) "optimal <= algo" true (best <= score +. 1e-9);
      Alcotest.(check bool) "algo <= pessimal" true (score <= worst +. 1e-9))
    [ Algorithms.pettis_hansen; Algorithms.greedy; (fun f -> Placement.natural (Freq.cfg f)) ]

let test_optimal_size_cap () =
  let items =
    List.concat
      [
        [ Asm.Proc "big" ];
        List.concat_map
          (fun i ->
            [
              Asm.cmpi 0 i;
              Asm.br Isa.Eq (Printf.sprintf "l%d" i);
              Asm.Label (Printf.sprintf "l%d" i);
            ])
          (List.init 12 Fun.id);
        [ Asm.ret ];
      ]
  in
  let p = Asm.assemble items in
  let cfg = Cfg.of_proc_name p "big" in
  let f = Freq.create cfg ~invocations:1.0 in
  Alcotest.(check bool) "too many blocks rejected" true
    (match Algorithms.optimal f with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- rewrite semantics --- *)

open Mote_lang.Ast.Dsl

let branchy_program =
  {
    Mote_lang.Ast.globals = [ ("a", 0); ("b", 0); ("n", 0) ];
    arrays = [];
    procs =
      [
        proc "task" ~params:[] ~locals:[ "x" ]
          [
            set "n" (v "n" +: i 1);
            set "x" (sensor 0);
            if_ (v "x" >: i 400)
              [ set "a" (v "a" +: v "x") ]
              [ set "b" (v "b" +: i 1) ];
            while_ (v "x" >: i 800) [ set "x" (v "x" -: i 300); set "a" (v "a" +: i 1) ];
            send (v "a");
          ];
      ];
  }

let run_variant program =
  let devices = Mote_machine.Devices.create () in
  let seq = ref 0 in
  Mote_machine.Devices.set_sensor devices (fun _ ->
      incr seq;
      !seq * 137 mod 1024);
  let m = Mote_machine.Machine.create ~program ~devices () in
  ignore (Mote_machine.Machine.run_proc m Mote_lang.Compile.init_proc_name);
  for _ = 1 to 100 do
    ignore (Mote_machine.Machine.run_proc m "task")
  done;
  (Mote_machine.Devices.tx_log devices, Mote_machine.Machine.stats m)

let test_rewrite_preserves_semantics () =
  let c = Mote_lang.Compile.compile branchy_program in
  let original = c.Mote_lang.Compile.program in
  let cfg = Cfg.of_proc_name original "task" in
  let n = Cfg.num_blocks cfg in
  (* Try several placements, including adversarial ones. *)
  let placements =
    [
      Placement.natural cfg;
      Array.init n (fun i -> if i = 0 then 0 else n - i);
    ]
  in
  let base_tx, _ = run_variant original in
  List.iter
    (fun p ->
      let rewritten = Rewrite.program original ~placements:[ ("task", p) ] in
      let tx, _ = run_variant rewritten in
      Alcotest.(check (list int)) "identical radio output" base_tx tx)
    placements

let test_rewrite_qcheck_random_placements () =
  let c = Mote_lang.Compile.compile branchy_program in
  let original = c.Mote_lang.Compile.program in
  let cfg = Cfg.of_proc_name original "task" in
  let n = Cfg.num_blocks cfg in
  let base_tx, _ = run_variant original in
  let rng = Stats.Rng.create 31 in
  for _ = 1 to 20 do
    let rest = Array.init (n - 1) (fun i -> i + 1) in
    Stats.Rng.shuffle rng rest;
    let p = Array.append [| 0 |] rest in
    let rewritten = Rewrite.program original ~placements:[ ("task", p) ] in
    let tx, _ = run_variant rewritten in
    Alcotest.(check (list int)) "random placement equivalent" base_tx tx
  done

let test_rewrite_reduces_taken_rate () =
  (* With the oracle profile, PH placement should not be worse than natural
     on the run it was trained on. *)
  let c = Mote_lang.Compile.compile branchy_program in
  let original = c.Mote_lang.Compile.program in
  let devices = Mote_machine.Devices.create () in
  let seq = ref 0 in
  Mote_machine.Devices.set_sensor devices (fun _ ->
      incr seq;
      !seq * 137 mod 1024);
  let m = Mote_machine.Machine.create ~program:original ~devices () in
  ignore (Mote_machine.Machine.run_proc m Mote_lang.Compile.init_proc_name);
  let oracle = Profilekit.Oracle.attach m in
  for _ = 1 to 200 do
    ignore (Mote_machine.Machine.run_proc m "task")
  done;
  let freq = Profilekit.Oracle.freq oracle ~proc:"task" ~invocations:200.0 in
  let placed =
    Rewrite.program original ~placements:[ ("task", Algorithms.pettis_hansen freq) ]
  in
  let _, stats_nat = run_variant original in
  let _, stats_opt = run_variant placed in
  Alcotest.(check bool) "taken rate improves" true
    (Mote_machine.Machine.taken_transfer_rate stats_opt
    <= Mote_machine.Machine.taken_transfer_rate stats_nat +. 1e-9)

let test_rewrite_keeps_unlisted_procs () =
  let p =
    Asm.assemble
      [ Asm.Proc "a"; Asm.movi 0 1; Asm.ret; Asm.Proc "b"; Asm.call "a"; Asm.ret ]
  in
  let r = Rewrite.program p ~placements:[] in
  Alcotest.(check int) "same procs" 2 (List.length (Program.procs r));
  let devices = Mote_machine.Devices.create () in
  let m = Mote_machine.Machine.create ~program:r ~devices () in
  ignore (Mote_machine.Machine.run_proc m "b");
  Alcotest.(check int) "call still works" 1 (Mote_machine.Machine.reg m 0)

let suite =
  [
    Alcotest.test_case "placement validate" `Quick test_placement_validate;
    Alcotest.test_case "placement helpers" `Quick test_placement_helpers;
    Alcotest.test_case "eval natural" `Quick test_eval_natural;
    Alcotest.test_case "eval optimized" `Quick test_eval_optimized;
    Alcotest.test_case "eval bridge jump" `Quick test_eval_bridge_jump;
    Alcotest.test_case "eval size = rewrite size" `Quick test_eval_size_prediction_matches_rewrite;
    Alcotest.test_case "pettis-hansen hot chain" `Quick test_pettis_hansen_picks_hot_chain;
    Alcotest.test_case "greedy" `Quick test_greedy_valid_and_sensible;
    Alcotest.test_case "optimal bounds" `Quick test_optimal_beats_or_ties_everything;
    Alcotest.test_case "optimal size cap" `Quick test_optimal_size_cap;
    Alcotest.test_case "rewrite preserves semantics" `Quick test_rewrite_preserves_semantics;
    Alcotest.test_case "rewrite random placements" `Quick test_rewrite_qcheck_random_placements;
    Alcotest.test_case "rewrite reduces taken rate" `Quick test_rewrite_reduces_taken_rate;
    Alcotest.test_case "rewrite keeps unlisted" `Quick test_rewrite_keeps_unlisted_procs;
  ]

(* --- BTFN policy in the static evaluator --- *)

let test_eval_btfn_policy () =
  (* Loop shape: B0 header branch (taken = exit forward), B1 body jmp back.
     Under not-taken the back jump stalls every iteration; under BTFN a
     BACKWARD conditional would be free when taken.  Build a CFG where the
     branch's taken target is placed EARLIER so BTFN predicts it taken. *)
  let p =
    Asm.assemble
      [
        Asm.Proc "g";
        Asm.Label "head";
        Asm.movi 0 1;
        Asm.cmpi 0 0;
        Asm.br Isa.Eq "head";
        Asm.ret;
      ]
  in
  let cfg = Cfg.of_proc_name p "g" in
  (* B0 self-loops (taken, backward in natural layout), exits to B1. *)
  let f = Freq.create cfg ~invocations:10.0 in
  Freq.bump f ~src:0 ~dst:0 ~kind:Cfg.K_taken 90.0;
  Freq.bump f ~src:0 ~dst:1 ~kind:Cfg.K_fall 10.0;
  let natural = Placement.natural cfg in
  let nt = Eval.evaluate ~policy:Eval.Not_taken f natural in
  let btfn = Eval.evaluate ~policy:Eval.Btfn f natural in
  (* Not-taken: stalls on the 90 taken loop-backs.  BTFN: backward target
     predicted taken, so it stalls only on the 10 exits. *)
  Alcotest.(check (float 1e-9)) "not-taken stalls" 90.0 nt.Eval.taken_transfers;
  Alcotest.(check (float 1e-9)) "btfn stalls" 10.0 btfn.Eval.taken_transfers;
  Alcotest.(check (float 1e-9)) "same considered" nt.Eval.considered btfn.Eval.considered

let test_eval_btfn_matches_machine () =
  (* The static BTFN prediction must equal the machine's dynamic count for
     a deterministic run, like the not-taken consistency test. *)
  let items =
    [
      Asm.Proc "g"; Asm.movi 0 5; Asm.Label "head"; Asm.subi 0 0 1; Asm.cmpi 0 0;
      Asm.br Isa.Gt "head"; Asm.ret;
    ]
  in
  let p = Asm.assemble items in
  let devices = Mote_machine.Devices.create () in
  let m =
    Mote_machine.Machine.create ~prediction:Mote_machine.Machine.Predict_btfn ~program:p
      ~devices ()
  in
  let oracle = Profilekit.Oracle.attach m in
  ignore (Mote_machine.Machine.run_proc m "g");
  let freq = Profilekit.Oracle.freq oracle ~proc:"g" ~invocations:1.0 in
  let cfg = Freq.cfg freq in
  let predicted =
    (Eval.evaluate ~policy:Eval.Btfn freq (Placement.natural cfg)).Eval.taken_transfers
  in
  let s = Mote_machine.Machine.stats m in
  Alcotest.(check int) "static btfn = dynamic btfn"
    (s.Mote_machine.Machine.mispredicted_branches
    + s.Mote_machine.Machine.unconditional_transfers)
    (int_of_float predicted)

let suite =
  suite
  @ [
      Alcotest.test_case "eval btfn policy" `Quick test_eval_btfn_policy;
      Alcotest.test_case "eval btfn = machine" `Quick test_eval_btfn_matches_machine;
    ]

(* --- the prepared scorer against the pre-scorer evaluator --- *)

(* [Eval.evaluate] as it was before the scorer: every weight looked up in
   the profile per call. *)
let reference_evaluate ~policy freq placement =
  let cfg = Freq.cfg freq in
  Placement.validate cfg placement;
  let pos = Placement.position_of placement in
  let n = Cfg.num_blocks cfg in
  let next id = if pos.(id) + 1 < n then Some placement.(pos.(id) + 1) else None in
  let stall ~src_pos ~target_pos ~w_takes ~w_falls =
    match policy with
    | Eval.Not_taken -> w_takes
    | Eval.Btfn -> if target_pos <= src_pos then w_falls else w_takes
  in
  let jmp_words = Isa.size (Isa.Jmp 0) in
  let taken = ref 0.0 and considered = ref 0.0 and bridges = ref 0 and size = ref 0 in
  for id = 0 to n - 1 do
    let b = Cfg.block cfg id in
    size := !size + b.Cfg.size_words;
    let adjacent dst = next id = Some dst in
    match b.Cfg.term with
    | Cfg.T_branch (_, tdst, fdst) ->
        let wt = Freq.get freq ~src:id ~dst:tdst ~kind:Cfg.K_taken in
        let wf = Freq.get freq ~src:id ~dst:fdst ~kind:Cfg.K_fall in
        let stall = stall ~src_pos:pos.(id) in
        if adjacent fdst then begin
          taken := !taken +. stall ~target_pos:pos.(tdst) ~w_takes:wt ~w_falls:wf;
          considered := !considered +. wt +. wf
        end
        else if adjacent tdst then begin
          taken := !taken +. stall ~target_pos:pos.(fdst) ~w_takes:wf ~w_falls:wt;
          considered := !considered +. wt +. wf
        end
        else begin
          taken := !taken +. stall ~target_pos:pos.(tdst) ~w_takes:wt ~w_falls:wf +. wf;
          considered := !considered +. wt +. wf +. wf;
          incr bridges;
          size := !size + jmp_words
        end
    | Cfg.T_jump dst ->
        let w = Freq.get freq ~src:id ~dst ~kind:Cfg.K_jump in
        if adjacent dst then size := !size - jmp_words
        else begin
          taken := !taken +. w;
          considered := !considered +. w
        end
    | Cfg.T_fall dst ->
        let w = Freq.get freq ~src:id ~dst ~kind:Cfg.K_fall in
        if not (adjacent dst) then begin
          taken := !taken +. w;
          considered := !considered +. w;
          incr bridges;
          size := !size + jmp_words
        end
    | Cfg.T_ret | Cfg.T_halt -> ()
  done;
  {
    Eval.taken_transfers = !taken;
    considered = !considered;
    taken_rate = (if !considered > 0.0 then !taken /. !considered else 0.0);
    bridge_jumps = !bridges;
    size_words = !size;
  }

let reference_taken freq p = (reference_evaluate ~policy:Eval.Not_taken freq p).Eval.taken_transfers

(* Every Heap's-order candidate, first strictly better wins. *)
let brute_force ~better freq =
  let cfg = Freq.cfg freq in
  let n = Cfg.num_blocks cfg in
  let best = ref (Placement.natural cfg) in
  if n > 1 then begin
    let best_score = ref (reference_taken freq !best) in
    let rest = Array.init (n - 1) (fun i -> i + 1) in
    let swap i j =
      let t = rest.(i) in
      rest.(i) <- rest.(j);
      rest.(j) <- t
    in
    let rec permute k =
      if k = 1 then begin
        let candidate = Array.append [| 0 |] rest in
        let score = reference_taken freq candidate in
        if better score !best_score then begin
          best := candidate;
          best_score := score
        end
      end
      else
        for i = 0 to k - 1 do
          permute (k - 1);
          if k mod 2 = 0 then swap i (k - 1) else swap 0 (k - 1)
        done
    in
    permute (n - 1)
  end;
  !best

(* [Algorithms.anneal] as it was before the scorer. *)
let reference_anneal ~seed ~iterations ~restarts freq =
  let n = Cfg.num_blocks (Freq.cfg freq) in
  let seed_placement = Algorithms.pettis_hansen freq in
  if n <= 2 then seed_placement
  else begin
    let rng = Stats.Rng.create seed in
    let score = reference_taken freq in
    let best = ref (Array.copy seed_placement) in
    let best_score = ref (score seed_placement) in
    for _ = 1 to restarts do
      let current = Array.copy !best in
      let current_score = ref (score current) in
      let t0 = Stdlib.max 1.0 (!best_score /. 10.0) in
      for i = 0 to iterations - 1 do
        let temp = t0 *. (0.995 ** float_of_int i) in
        let a = 1 + Stats.Rng.int rng (n - 1) in
        let b = 1 + Stats.Rng.int rng (n - 1) in
        if a <> b then begin
          let tmp = current.(a) in
          current.(a) <- current.(b);
          current.(b) <- tmp;
          let candidate_score = score current in
          let delta = candidate_score -. !current_score in
          if
            delta <= 0.0 || Stats.Rng.unit_float rng < exp (-.delta /. Stdlib.max 1e-9 temp)
          then begin
            current_score := candidate_score;
            if candidate_score < !best_score then begin
              best := Array.copy current;
              best_score := candidate_score
            end
          end
          else begin
            let tmp = current.(a) in
            current.(a) <- current.(b);
            current.(b) <- tmp
          end
        end
      done
    done;
    !best
  end

(* Random edge weights: small integers (many ties, so tie-breaking
   matters) or continuous values. *)
let random_freq rng cfg ~ties =
  let f = Freq.create cfg ~invocations:(float_of_int (1 + Stats.Rng.int rng 100)) in
  List.iter
    (fun (src, dst, kind) ->
      let w =
        if ties then float_of_int (Stats.Rng.int rng 4) else Stats.Rng.float rng 1000.0
      in
      Freq.bump f ~src ~dst ~kind w)
    (Cfg.edges cfg);
  f

let small_workload_cfgs () =
  List.concat_map
    (fun w ->
      Cfg.of_program (Workloads.compiled w).Mote_lang.Compile.program
      |> List.filter (fun cfg -> Cfg.num_blocks cfg <= 9))
    Workloads.all

let test_exhaustive_matches_brute_force () =
  let rng = Stats.Rng.create 2024 in
  let placement = Alcotest.(array int) in
  List.iter
    (fun cfg ->
      let name = cfg.Cfg.proc.Program.name in
      List.iter
        (fun ties ->
          let f = random_freq rng cfg ~ties in
          Alcotest.check placement (name ^ " optimal")
            (brute_force ~better:(fun a b -> a < b) f)
            (Algorithms.optimal f);
          Alcotest.check placement (name ^ " pessimal")
            (brute_force ~better:(fun a b -> a > b) f)
            (Algorithms.pessimal f);
          Alcotest.check placement (name ^ " anneal")
            (reference_anneal ~seed:5 ~iterations:400 ~restarts:2 f)
            (Algorithms.anneal ~seed:5 ~iterations:400 ~restarts:2 f))
        [ true; false ])
    (small_workload_cfgs ())

(* Every report field, bit for bit, under both policies, on random
   placements of every small workload CFG. *)
let test_scorer_report_matches_reference () =
  let rng = Stats.Rng.create 77 in
  let bits (r : Eval.report) =
    ( Int64.bits_of_float r.Eval.taken_transfers,
      Int64.bits_of_float r.Eval.considered,
      Int64.bits_of_float r.Eval.taken_rate,
      r.Eval.bridge_jumps,
      r.Eval.size_words )
  in
  List.iter
    (fun cfg ->
      let f = random_freq rng cfg ~ties:false in
      List.iter
        (fun policy ->
          let scorer = Eval.scorer ~policy f in
          for _ = 1 to 20 do
            let rest = Array.init (Cfg.num_blocks cfg - 1) (fun i -> i + 1) in
            Stats.Rng.shuffle rng rest;
            let p = Array.append [| 0 |] rest in
            let expected = bits (reference_evaluate ~policy f p) in
            Alcotest.(check bool) "evaluate" true (bits (Eval.evaluate ~policy f p) = expected);
            Alcotest.(check bool) "scorer" true (bits (Eval.report scorer p) = expected)
          done)
        [ Eval.Not_taken; Eval.Btfn ])
    (small_workload_cfgs ())

let suite =
  suite
  @ [
      Alcotest.test_case "exhaustive = brute force" `Quick test_exhaustive_matches_brute_force;
      Alcotest.test_case "scorer = reference evaluate" `Quick
        test_scorer_report_matches_reference;
    ]

(* --- the allocation-free exhaustive search against the scoring loop it
   replaced --- *)

(* [Algorithms.exhaustive] as it was before the search moved into
   [Eval.extreme]: the candidate permuted in place by Heap's algorithm,
   each one scored by [Eval.report] (which validates it and inverts it
   afresh), the first strictly better kept. *)
let scored_exhaustive ~better freq =
  let cfg = Freq.cfg freq in
  let n = Cfg.num_blocks cfg in
  if n <= 1 then Placement.natural cfg
  else begin
    let scorer = Eval.scorer freq in
    let score p = (Eval.report scorer p).Eval.taken_transfers in
    let candidate = Placement.natural cfg in
    let best = ref (Array.copy candidate) in
    let best_score = ref (score !best) in
    let consider () =
      let s = score candidate in
      if better s !best_score then begin
        best := Array.copy candidate;
        best_score := s
      end
    in
    let swap i j =
      let t = candidate.(i + 1) in
      candidate.(i + 1) <- candidate.(j + 1);
      candidate.(j + 1) <- t
    in
    let rec permute k =
      if k = 1 then consider ()
      else
        for i = 0 to k - 1 do
          permute (k - 1);
          if k mod 2 = 0 then swap i (k - 1) else swap 0 (k - 1)
        done
    in
    permute (n - 1);
    !best
  end

(* A CFG of [n] blocks with random terminators and block sizes: branches
   (self-loops and equal targets included), jumps, fall-throughs and
   returns. *)
let random_cfg rng n =
  let pick () = Stats.Rng.int rng n in
  let blocks =
    Array.init n (fun id ->
        let term =
          match Stats.Rng.int rng 4 with
          | 0 -> Cfg.T_branch (Isa.Ne, pick (), pick ())
          | 1 -> Cfg.T_jump (pick ())
          | 2 -> Cfg.T_fall (pick ())
          | _ -> Cfg.T_ret
        in
        {
          Cfg.id;
          first = id;
          last = id;
          base_cost = 1;
          size_words = 1 + Stats.Rng.int rng 3;
          callees = [];
          term;
        })
  in
  let cfg =
    {
      Cfg.proc = { Program.name = "random"; entry = 0; finish = n };
      blocks;
      preds = Array.make n [];
    }
  in
  let preds = Array.make n [] in
  List.iter (fun (src, dst, _) -> preds.(dst) <- src :: preds.(dst)) (Cfg.edges cfg);
  { cfg with Cfg.preds = Array.map List.rev preds }

let test_extreme_matches_scored_loop () =
  let rng = Stats.Rng.create 4242 in
  let placement = Alcotest.(array int) in
  List.iter
    (fun n ->
      for trial = 1 to 6 do
        let cfg = random_cfg rng n in
        let weight =
          match trial mod 4 with
          | 0 -> fun () -> 0.0
          | 1 -> fun () -> 5.0
          | 2 -> fun () -> float_of_int (Stats.Rng.int rng 3)
          | _ -> fun () -> Stats.Rng.float rng 100.0
        in
        let f = Freq.create cfg ~invocations:10.0 in
        List.iter (fun (src, dst, kind) -> Freq.bump f ~src ~dst ~kind (weight ())) (Cfg.edges cfg);
        let label what = Printf.sprintf "%d blocks, trial %d: %s" n trial what in
        Alcotest.check placement (label "optimal")
          (scored_exhaustive ~better:(fun a b -> a < b) f)
          (Algorithms.optimal f);
        Alcotest.check placement (label "pessimal")
          (scored_exhaustive ~better:(fun a b -> a > b) f)
          (Algorithms.pessimal f)
      done)
    [ 2; 3; 4; 5; 6; 7; 8; 9 ]

let suite =
  suite
  @ [
      Alcotest.test_case "exhaustive = scored loop (random CFGs)" `Quick
        test_extreme_matches_scored_loop;
    ]
