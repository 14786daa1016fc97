(* The eight differential oracles.

   Each oracle takes one generated program (plus its own RNG stream where
   it needs randomness) and returns a verdict.  Failures carry a message
   precise enough to act on without re-running; skips name the structural
   reason a case carries no signal (no branch parameters, truncated path
   set, ...) so the runner can report skip rates — a quietly-skipping
   oracle is itself a bug. *)

module Ast = Mote_lang.Ast
module Check = Mote_lang.Check
module Compile = Mote_lang.Compile
module Optimize = Mote_lang.Optimize
module Isa = Mote_isa.Isa
module Asm = Mote_isa.Asm
module Program = Mote_isa.Program
module Machine = Mote_machine.Machine
module Devices = Mote_machine.Devices
module Cfg = Cfgir.Cfg
module Probes = Profilekit.Probes
module Transport = Profilekit.Transport
module Node = Mote_os.Node
module P = Codetomo.Pipeline

type verdict = Pass | Skip of string | Fail of string

type params = {
  invocations : int;
  placement_rounds : int;
  em_invocations : int;
  max_paths : int;
  max_visits : int;
  em_max_iters : int;
  walk_samples : int;
  conv_max_paths : int;
  conv_max_visits : int;
  enum_steps : int;
  conv_samples : int array;
  conv_tol : float;
  conv_slack : float;
}

let default_params =
  {
    invocations = 24;
    placement_rounds = 3;
    em_invocations = 48;
    max_paths = 512;
    max_visits = 6;
    em_max_iters = 12;
    walk_samples = 4000;
    conv_max_paths = 8192;
    conv_max_visits = 10;
    enum_steps = 2_000_000;
    conv_samples = [| 60; 240; 960 |];
    conv_tol = 0.12;
    conv_slack = 0.05;
  }

(* ------------------------------------------------------------------ *)
(* Observable machine state.                                          *)
(* ------------------------------------------------------------------ *)

(* Everything a mote program can externally affect, plus the persistent
   data state: globals, the task frame, arrays, the radio TX log and the
   LED port.  Cycle/instruction statistics are deliberately *not* part of
   the observation — optimization and relayout change them by design; the
   rewrite oracle checks its own layout-invariant combinations of them
   separately. *)
type observation = {
  vars : (string * int) list;  (** Globals, then the task frame. *)
  arrays : (string * int array) list;
  tx : int list;
  leds : int;
  led_writes : int;
  stats : Machine.stats;
}

let frame_vars (c : Compile.t) proc =
  match List.assoc_opt proc c.frames with
  | Some frame -> List.map fst frame
  | None -> []

(* Run [binary] against a fresh environment seeded with [env_seed]:
   [__init] once, then [invocations] invocations of the task.  Every
   oracle that executes a generated binary runs it here and reads what it
   needs off the machine (its devices hold the probe log). *)
let run_program ~env_seed ~invocations binary =
  let devices = Devices.create () in
  let env = Env.create (Gen.env_config ~seed:env_seed) in
  Env.attach env devices;
  let m = Machine.create ~program:binary ~devices () in
  match
    ignore (Machine.run_proc m Compile.init_proc_name);
    for _ = 1 to invocations do
      ignore (Machine.run_proc m Gen.task_name)
    done
  with
  | exception Machine.Fault msg -> Error (Printf.sprintf "machine fault: %s" msg)
  | exception Not_found -> Error "task procedure missing from binary"
  | () -> Ok m

(* [run_program], then the observation.  [c] only supplies the symbol
   tables used to read state back — the binary may be an optimized,
   instrumented or rewritten variant, as long as it keeps the same data
   layout (none of the passes under test move data). *)
let observe ~env_seed ~invocations (c : Compile.t) binary =
  Result.map
    (fun m ->
      let read_var proc name =
        (name, Machine.read_mem m (Compile.var_address c ~proc name))
      in
      let vars =
        List.map (fun (g, _) -> read_var Gen.task_name g) c.global_addrs
        @ List.map (read_var Gen.task_name) (frame_vars c Gen.task_name)
      in
      let arrays =
        List.map
          (fun (a, base) ->
            (a, Array.init Gen.array_size (fun i -> Machine.read_mem m (base + i))))
          c.array_addrs
      in
      let devices = Machine.devices m in
      {
        vars;
        arrays;
        tx = Devices.tx_log devices;
        leds = Devices.leds devices;
        led_writes = Devices.led_writes devices;
        stats = Machine.stats m;
      })
    (run_program ~env_seed ~invocations binary)

let pp_ints l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"

(* All observable differences between two runs, as human-readable lines.
   Compares by name so the two observations need not list state in the
   same order. *)
let diff_observations ~left ~right a b =
  let out = ref [] in
  let emit fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  List.iter
    (fun (name, va) ->
      match List.assoc_opt name b.vars with
      | None -> emit "var %s missing on %s side" name right
      | Some vb ->
          if va <> vb then emit "var %s: %s=%d %s=%d" name left va right vb)
    a.vars;
  List.iter
    (fun (name, va) ->
      match List.assoc_opt name b.arrays with
      | None -> emit "array %s missing on %s side" name right
      | Some vb ->
          if va <> vb then
            emit "array %s: %s=%s %s=%s" name left
              (pp_ints (Array.to_list va))
              right
              (pp_ints (Array.to_list vb)))
    a.arrays;
  if a.tx <> b.tx then
    emit "radio tx log: %s=%s %s=%s" left (pp_ints a.tx) right (pp_ints b.tx);
  if a.leds <> b.leds then emit "leds: %s=%d %s=%d" left a.leds right b.leds;
  if a.led_writes <> b.led_writes then
    emit "led writes: %s=%d %s=%d" left a.led_writes right b.led_writes;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Oracle 1: source-level optimization preserves observables.         *)
(* ------------------------------------------------------------------ *)

let optimize p ~env_seed (ast : Ast.program) (c_src : Compile.t) =
  let opt_ast = Optimize.program ast in
  match Compile.compile opt_ast with
  | exception Invalid_argument msg ->
      Fail (Printf.sprintf "optimized program no longer compiles: %s" msg)
  | c_opt -> (
      let run c = observe ~env_seed ~invocations:p.invocations c c.Compile.program in
      match (run c_src, run c_opt) with
      | Error msg, Error _ ->
          (* Both faulting means the generator emitted a faulting program —
             its own invariant violation, reported as such. *)
          Fail (Printf.sprintf "generated program faults: %s" msg)
      | Error msg, Ok _ -> Fail (Printf.sprintf "unoptimized run faults: %s" msg)
      | Ok _, Error msg -> Fail (Printf.sprintf "optimized run faults: %s" msg)
      | Ok a, Ok b -> (
          match diff_observations ~left:"plain" ~right:"optimized" a b with
          | [] -> Pass
          | diffs ->
              Fail
                ("optimize changed observable behaviour:\n  "
                ^ String.concat "\n  " diffs)))

(* ------------------------------------------------------------------ *)
(* Oracle 2: relayout preserves execution and timing semantics.       *)
(* ------------------------------------------------------------------ *)

(* What a placement change may NOT alter.  From the CT16 cost model,
   cycles = Σ base costs + taken_penalty · (taken conditional branches +
   jumps + calls + returns), and a rewrite only (a) reorders blocks,
   (b) flips branch polarity, (c) inserts/deletes bridging Jmps.  So the
   conditional-branch, call and return counts, the instruction count net
   of jumps, and the cycle count net of all penalties and jump base costs
   are placement-invariant. *)
type layout_invariant = {
  li_cond_branches : int;
  li_calls : int;
  li_returns : int;
  li_instructions_sans_jumps : int;
  li_cycles_sans_transfers : int;
}

let layout_invariant (s : Machine.stats) =
  {
    li_cond_branches = s.cond_branches;
    li_calls = s.calls;
    li_returns = s.returns;
    li_instructions_sans_jumps = s.instructions - s.unconditional_transfers;
    li_cycles_sans_transfers =
      s.cycles
      - (Isa.taken_penalty * (s.taken_cond_branches + s.unconditional_transfers))
      - (Isa.base_cost (Isa.Jmp 0) * s.unconditional_transfers);
  }

let diff_invariants a b =
  let out = ref [] in
  let emit fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let check name f =
    if f a <> f b then emit "%s: natural=%d rewritten=%d" name (f a) (f b)
  in
  check "conditional branches" (fun i -> i.li_cond_branches);
  check "calls" (fun i -> i.li_calls);
  check "returns" (fun i -> i.li_returns);
  check "instructions - jumps" (fun i -> i.li_instructions_sans_jumps);
  check "cycles - transfer penalties - jump costs" (fun i ->
      i.li_cycles_sans_transfers);
  List.rev !out

(* A random placement per procedure: entry pinned at position 0, the rest
   shuffled.  Procedures with fewer than three blocks admit only the
   identity and are left alone. *)
let random_placements rng binary =
  List.filter_map
    (fun (pi : Program.proc_info) ->
      let cfg = Cfg.of_proc binary pi in
      let n = Cfg.num_blocks cfg in
      if n < 3 then None
      else begin
        let rest = Array.init (n - 1) (fun i -> i + 1) in
        Stats.Rng.shuffle rng rest;
        Some (pi.Program.name, Array.append [| 0 |] rest)
      end)
    (Program.procs binary)

let probe_counts samples =
  List.map (fun (proc, arr) -> (proc, Array.length arr)) samples
  |> List.sort compare

let run_instrumented ~env_seed ~invocations instrumented =
  match run_program ~env_seed ~invocations instrumented with
  | Error msg -> Error msg
  | Ok m -> (
      let devices = Machine.devices m in
      match Probes.collect ~program:instrumented ~devices with
      | exception Probes.Unbalanced msg ->
          Error (Printf.sprintf "unbalanced probe log: %s" msg)
      | samples -> Ok (samples, Devices.tx_log devices))

let rewrite p rng ~env_seed (c : Compile.t) =
  let binary = c.Compile.program in
  let instrumented = Asm.assemble (Probes.instrument c.Compile.items) in
  match observe ~env_seed ~invocations:p.invocations c binary with
  | Error msg -> Fail (Printf.sprintf "natural-layout run faults: %s" msg)
  | Ok base -> (
      match run_instrumented ~env_seed ~invocations:p.invocations instrumented with
      | Error msg -> Fail (Printf.sprintf "instrumented natural run: %s" msg)
      | Ok (base_samples, base_tx) ->
          let base_inv = layout_invariant base.stats in
          let rec rounds round =
            if round > p.placement_rounds then Pass
            else begin
              let placements = random_placements rng binary in
              let instr_placements = random_placements rng instrumented in
              if placements = [] && instr_placements = [] then Pass
                (* every procedure is <3 blocks; nothing to vary *)
              else
                let rewritten = Layout.Rewrite.program binary ~placements in
                match observe ~env_seed ~invocations:p.invocations c rewritten with
                | Error msg ->
                    Fail
                      (Printf.sprintf "round %d: rewritten run faults: %s" round msg)
                | Ok rw -> (
                    match diff_observations ~left:"natural" ~right:"rewritten" base rw with
                    | _ :: _ as diffs ->
                        Fail
                          (Printf.sprintf
                             "round %d: rewrite changed observable behaviour:\n  %s"
                             round
                             (String.concat "\n  " diffs))
                    | [] -> (
                        match diff_invariants base_inv (layout_invariant rw.stats) with
                        | _ :: _ as diffs ->
                            Fail
                              (Printf.sprintf
                                 "round %d: rewrite broke a layout invariant:\n  %s"
                                 round
                                 (String.concat "\n  " diffs))
                        | [] -> (
                            let rw_instr =
                              Layout.Rewrite.program instrumented
                                ~placements:instr_placements
                            in
                            match
                              run_instrumented ~env_seed ~invocations:p.invocations
                                rw_instr
                            with
                            | Error msg ->
                                Fail
                                  (Printf.sprintf
                                     "round %d: instrumented rewritten run: %s" round
                                     msg)
                            | Ok (rw_samples, rw_tx) ->
                                if rw_tx <> base_tx then
                                  Fail
                                    (Printf.sprintf
                                       "round %d: instrumented rewrite changed tx \
                                        log: natural=%s rewritten=%s"
                                       round (pp_ints base_tx) (pp_ints rw_tx))
                                else if
                                  probe_counts rw_samples <> probe_counts base_samples
                                then
                                  Fail
                                    (Printf.sprintf
                                       "round %d: rewrite changed probe sample \
                                        counts: natural=%s rewritten=%s"
                                       round
                                       (String.concat ","
                                          (List.map
                                             (fun (p, n) -> Printf.sprintf "%s:%d" p n)
                                             (probe_counts base_samples)))
                                       (String.concat ","
                                          (List.map
                                             (fun (p, n) -> Printf.sprintf "%s:%d" p n)
                                             (probe_counts rw_samples))))
                                else rounds (round + 1))))
            end
          in
          rounds 1)

(* ------------------------------------------------------------------ *)
(* Oracle 3: sparse EM kernels agree with the dense reference.        *)
(* ------------------------------------------------------------------ *)

let hex = Printf.sprintf "%h"

let diff_results (a : Tomo.Em.result) (b : Tomo.Em.result) =
  let out = ref [] in
  let emit fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  if Array.length a.theta <> Array.length b.theta then
    emit "theta arity: sparse=%d dense=%d" (Array.length a.theta)
      (Array.length b.theta)
  else
    Array.iteri
      (fun j ta ->
        let tb = b.theta.(j) in
        if hex ta <> hex tb then
          emit "theta.(%d): sparse=%s dense=%s" j (hex ta) (hex tb))
      a.theta;
  if hex a.sigma <> hex b.sigma then
    emit "sigma: sparse=%s dense=%s" (hex a.sigma) (hex b.sigma);
  if a.iterations <> b.iterations then
    emit "iterations: sparse=%d dense=%d" a.iterations b.iterations;
  if hex a.log_likelihood <> hex b.log_likelihood then
    emit "log-likelihood: sparse=%s dense=%s" (hex a.log_likelihood)
      (hex b.log_likelihood);
  if a.converged <> b.converged then
    emit "converged: sparse=%b dense=%b" a.converged b.converged;
  if List.length a.trajectory <> List.length b.trajectory then
    emit "trajectory length: sparse=%d dense=%d" (List.length a.trajectory)
      (List.length b.trajectory)
  else
    List.iteri
      (fun i ((ta, la), (tb, lb)) ->
        let theta_eq =
          Array.length ta = Array.length tb
          && Array.for_all2 (fun x y -> hex x = hex y) ta tb
        in
        if (not theta_eq) || hex la <> hex lb then
          emit "trajectory step %d differs" i)
      (List.combine a.trajectory b.trajectory);
  List.rev !out

(* The oracles' path set: [model] enumerated under the fuzz bounds, or
   the reason it is too complex to enumerate. *)
let enumerate p model =
  match
    Tomo.Paths.enumerate ~max_paths:p.max_paths ~max_visits:p.max_visits
      ~max_steps:p.enum_steps model
  with
  | exception Tomo.Paths.Too_complex msg -> Error msg
  | paths -> Ok paths

let em_agreement p ~env_seed (c : Compile.t) =
  let instrumented = Asm.assemble (Probes.instrument c.Compile.items) in
  match run_instrumented ~env_seed ~invocations:p.em_invocations instrumented with
  | Error msg -> Fail (Printf.sprintf "instrumented run: %s" msg)
  | Ok (sample_set, _) -> (
      let samples = Probes.samples_for sample_set Gen.task_name in
      if Array.length samples = 0 then Skip "no probe samples collected"
      else
        let cfg = Cfg.of_proc_name instrumented Gen.task_name in
        let model = Tomo.Model.of_cfg cfg in
        if Tomo.Model.num_params model = 0 then Skip "no branch parameters"
        else
          match enumerate p model with
          | Error msg -> Skip (Printf.sprintf "path enumeration: %s" msg)
          | Ok paths -> (
              let sparse =
                Tomo.Em.estimate ~max_iters:p.em_max_iters ~record_trajectory:true
                  paths ~samples
              in
              let dense =
                Tomo.Em.Dense.estimate ~max_iters:p.em_max_iters
                  ~record_trajectory:true paths ~samples
              in
              match diff_results sparse dense with
              | [] -> Pass
              | diffs ->
                  Fail
                    ("sparse EM diverged from the dense reference:\n  "
                    ^ String.concat "\n  " diffs)))

(* ------------------------------------------------------------------ *)
(* Oracle 4: estimates converge to random-walk ground truth.          *)
(* ------------------------------------------------------------------ *)

(* The estimator needs a tractable path set; large tasks (20+ branch
   parameters under nested loops) structurally exceed any enumeration
   bound.  Try the task first, then each helper — a case only skips when
   no procedure of the program carries recoverable signal. *)
let convergence_candidates (c : Compile.t) p =
  List.filter_map
    (fun (pi : Program.proc_info) ->
      if pi.Program.name = Compile.init_proc_name then None
      else
        let cfg = Cfg.of_proc c.Compile.program pi in
        let model = Tomo.Model.of_cfg ~call_residual:0 ~window_correction:0 cfg in
        if Tomo.Model.num_params model = 0 then None
        else
          match
            Tomo.Paths.enumerate ~max_paths:p.conv_max_paths
              ~max_visits:p.conv_max_visits ~max_steps:p.enum_steps model
          with
          | exception Tomo.Paths.Too_complex _ -> None
          | paths -> Some (pi.Program.name, cfg, model, paths))
    (Program.procs c.Compile.program)
  |> List.sort (fun (a, _, _, _) (b, _, _, _) ->
         (* task first, then helpers in name order *)
         compare (a <> Gen.task_name, a) (b <> Gen.task_name, b))


let convergence p rng (c : Compile.t) =
  let theta_rng = Stats.Rng.split rng in
  let walk_rng = Stats.Rng.split rng in
  let sample_rng = Stats.Rng.split rng in
  (* Judge one candidate procedure; [None] means it carries no signal
     (truncated mass, every parameter ambiguous/unexercised) and the next
     candidate should be tried. *)
  let try_candidate (_name, cfg, model, paths) =
    let k = Tomo.Model.num_params model in
    let theta_true =
      Array.init k (fun _ -> 0.2 +. Stats.Rng.float theta_rng 0.6)
    in
    if
      Tomo.Paths.truncated paths
      && Tomo.Paths.prior_mass paths ~theta:theta_true < 0.995
    then None
    else
      let ambiguous = (Tomo.Identify.analyze paths).Tomo.Identify.ambiguous in
      let chain = Tomo.Model.chain model ~theta:theta_true in
      match
        Markov.Walk.edge_counts walk_rng chain ~start:0 ~samples:p.walk_samples
          ~max_steps:200_000
      with
      | exception Failure _ -> None
      | counts ->
          let param_blocks = Tomo.Model.param_blocks model in
          (* Ground-truth taken frequency per parameter, weighted by how
             often the walks exercised the branch.  Parameters whose branch
             is cost-ambiguous, never visited, or whose two targets
             coincide carry no signal and get weight 0. *)
          let freq = Array.make k 0.0 and weight = Array.make k 0.0 in
          Array.iteri
            (fun j b ->
              match (Cfg.block cfg b).Cfg.term with
              | Cfg.T_branch (_, tb, fb) when tb <> fb && not ambiguous.(j) ->
                  let t = float_of_int counts.(b).(tb)
                  and f = float_of_int counts.(b).(fb) in
                  if t +. f > 0.0 then begin
                    freq.(j) <- t /. (t +. f);
                    weight.(j) <- t +. f
                  end
              | _ -> ())
            param_blocks;
          let total_weight = Array.fold_left ( +. ) 0.0 weight in
          if total_weight = 0.0 then None
          else
            let error n =
              let samples =
                Tomo.Paths.sample_costs sample_rng paths ~theta:theta_true ~n
              in
              let r =
                Tomo.Em.estimate ~max_iters:80 ~record_trajectory:false paths
                  ~samples
              in
              let acc = ref 0.0 in
              Array.iteri
                (fun j w ->
                  acc := !acc +. (w *. Float.abs (r.theta.(j) -. freq.(j))))
                weight;
              !acc /. total_weight
            in
            let errors = Array.map error p.conv_samples in
            let last = errors.(Array.length errors - 1) in
            let first = errors.(0) in
            let pp_errors () =
              String.concat ", "
                (Array.to_list
                   (Array.mapi
                      (fun i n -> Printf.sprintf "n=%d err=%.4f" n errors.(i))
                      p.conv_samples))
            in
            if last > p.conv_tol then
              Some
                (Fail
                   (Printf.sprintf
                      "estimate did not converge to walk ground truth in %s: %s \
                       (tolerance %.3f)"
                      _name (pp_errors ()) p.conv_tol))
            else if last > first +. p.conv_slack then
              Some
                (Fail
                   (Printf.sprintf "error grew with sample size in %s: %s (slack %.3f)"
                      _name (pp_errors ()) p.conv_slack))
            else Some Pass
  in
  let rec first_usable = function
    | [] -> Skip "no procedure with identifiable, untruncated branch signal"
    | cand :: rest -> (
        match try_candidate cand with Some v -> v | None -> first_usable rest)
  in
  match convergence_candidates c p with
  | [] -> Skip "no procedure with a tractable branch-parameter path set"
  | candidates -> first_usable candidates

(* ------------------------------------------------------------------ *)
(* Oracle 5: lossy telemetry degrades gracefully, never fatally.      *)
(* ------------------------------------------------------------------ *)

(* A random but bounded fault mix: rates chosen so most cases keep some
   signal (exercising sanitize + robust EM) while a minority lose whole
   procedures (exercising the Rejected fallback).  Unbounded rates would
   make every case skip-equivalent — all data lost teaches nothing about
   the estimator. *)
let draw_fault_config rng =
  {
    Transport.drop = Stats.Rng.float rng 0.12;
    corrupt = Stats.Rng.float rng 0.04;
    duplicate = Stats.Rng.float rng 0.05;
    reorder = Stats.Rng.float rng 0.08;
    burst_enter = Stats.Rng.float rng 0.01;
    reboot = Stats.Rng.float rng 0.002;
  }

(* A procedure's code with addresses normalized: intra-procedure targets
   become entry-relative, external ones collapse to a sentinel.  Equal
   fingerprints mean the rewrite emitted the procedure's instructions in
   the same order with the same bridging jumps — i.e. left its layout
   alone (absolute targets legitimately shift when other procedures
   move). *)
let proc_fingerprint binary (pi : Program.proc_info) =
  List.init
    (pi.Program.finish - pi.Program.entry)
    (fun i ->
      Isa.map_label
        (fun t ->
          if t >= pi.Program.entry && t < pi.Program.finish then
            t - pi.Program.entry
          else -1)
        (Program.instr binary (pi.Program.entry + i)))

exception Degraded_badly of string

let faults p rng ~env_seed (c : Compile.t) =
  let fault_seed = Stats.Rng.int rng 1_000_000 in
  let fconfig = draw_fault_config rng in
  let instrumented = Asm.assemble (Probes.instrument c.Compile.items) in
  match run_program ~env_seed ~invocations:p.em_invocations instrumented with
  | Error msg -> Fail (Printf.sprintf "instrumented run: %s" msg)
  | Ok m -> (
      let devices = Machine.devices m in
      let log = Devices.probe_log devices in
      if log = [] then Skip "empty probe log"
      else
        let resolution = Devices.timer_resolution devices in
        let perturbed, stats = Transport.perturb ~seed:fault_seed fconfig log in
        let perturbed2, stats2 = Transport.perturb ~seed:fault_seed fconfig log in
        if perturbed <> perturbed2 || stats <> stats2 then
          Fail
            "transport is not deterministic: same (seed, config, log) produced \
             different outputs"
        else if fst (Transport.perturb ~seed:fault_seed Transport.default log) <> log
        then Fail "identity transport (all rates zero) changed the log"
        else if stats.Transport.delivered <> List.length perturbed then
          Fail
            (Printf.sprintf
               "transport accounting: delivered=%d but the perturbed log has %d \
                records"
               stats.Transport.delivered (List.length perturbed))
        else
          match
            Probes.collect_lossy_records ~program:instrumented ~resolution perturbed
          with
          | exception e ->
              Fail
                (Printf.sprintf "lossy collection raised %s" (Printexc.to_string e))
          | { Probes.samples = lossy; discarded = _ } -> (
              (* Mirror the pipeline's degradation contract per procedure:
                 sanitize, floor-check, robust-estimate; a Rejected
                 procedure contributes no profile and must come out of the
                 placement rewrite bit-identical (modulo relinking). *)
              let floor = Tomo.Health.default_min_samples in
              let natural = c.Compile.program in
              try
                let profiles, rejected =
                  List.fold_left
                    (fun (profiles, rejected) (pi : Program.proc_info) ->
                      let proc = pi.Program.name in
                      if proc = Compile.init_proc_name then (profiles, rejected)
                      else begin
                        let samples = Probes.samples_for lossy proc in
                        let model_i =
                          Tomo.Model.of_cfg (Cfg.of_proc_name instrumented proc)
                        in
                        let paths =
                          if Tomo.Model.num_params model_i = 0 then None
                          else Result.to_option (enumerate p model_i)
                        in
                        let min_cost, max_cost =
                          match paths with
                          | Some ps -> (Tomo.Paths.min_cost ps, Tomo.Paths.max_cost ps)
                          | None -> (Float.neg_infinity, Float.infinity)
                        in
                        let kept, report =
                          Tomo.Sanitize.run ~min_cost ~max_cost ~sigma:1.0 samples
                        in
                        let n = Array.length kept in
                        if
                          report.Tomo.Sanitize.total <> Array.length samples
                          || report.Tomo.Sanitize.kept <> n
                          || report.Tomo.Sanitize.total
                             <> report.Tomo.Sanitize.kept
                                + report.Tomo.Sanitize.envelope_dropped
                                + report.Tomo.Sanitize.mad_dropped
                        then
                          raise
                            (Degraded_badly
                               (Printf.sprintf
                                  "%s: sanitize report does not add up: total=%d \
                                   kept=%d envelope=%d mad=%d over %d samples in, \
                                   %d out"
                                  proc report.Tomo.Sanitize.total
                                  report.Tomo.Sanitize.kept
                                  report.Tomo.Sanitize.envelope_dropped
                                  report.Tomo.Sanitize.mad_dropped
                                  (Array.length samples) n));
                        if n < floor then begin
                          let verdict =
                            Tomo.Health.judge ~min_samples:floor ~converged:true
                              ~sample_count:n ()
                          in
                          if not (Tomo.Health.is_rejected verdict) then
                            raise
                              (Degraded_badly
                                 (Printf.sprintf
                                    "%s: %d samples under floor %d not rejected \
                                     (verdict: %s)"
                                    proc n floor (Tomo.Health.to_string verdict)));
                          (profiles, proc :: rejected)
                        end
                        else
                          match paths with
                          | None -> (profiles, rejected)
                          | Some paths ->
                              let r =
                                try
                                  Tomo.Em.estimate ~max_iters:p.em_max_iters
                                    ~robust:true paths
                                    ~samples:kept
                                with e ->
                                  raise
                                    (Degraded_badly
                                       (Printf.sprintf
                                          "%s: robust EM raised %s on %d sanitized \
                                           samples"
                                          proc (Printexc.to_string e) n))
                              in
                              Array.iteri
                                (fun j th ->
                                  if
                                    (not (Float.is_finite th))
                                    || th < 0.0 || th > 1.0
                                  then
                                    raise
                                      (Degraded_badly
                                         (Printf.sprintf
                                            "%s: robust theta.(%d) = %h outside \
                                             [0,1]"
                                            proc j th)))
                                r.Tomo.Em.theta;
                              if
                                (not (Float.is_finite r.Tomo.Em.sigma))
                                || r.Tomo.Em.sigma < 0.0
                              then
                                raise
                                  (Degraded_badly
                                     (Printf.sprintf "%s: robust sigma = %h" proc
                                        r.Tomo.Em.sigma));
                              (match r.Tomo.Em.outlier_eps with
                              | None ->
                                  raise
                                    (Degraded_badly
                                       (proc
                                      ^ ": robust EM reported no outlier weight"))
                              | Some eps ->
                                  if
                                    (not (Float.is_finite eps))
                                    || eps < 0.0
                                    (* Em clamps ε to at most 0.5. *)
                                    || eps > 0.5
                                  then
                                    raise
                                      (Degraded_badly
                                         (Printf.sprintf
                                            "%s: outlier eps = %h outside [0, \
                                             0.5]"
                                            proc eps)));
                              let verdict =
                                Tomo.Health.judge ~min_samples:floor
                                  ~converged:r.Tomo.Em.converged ~sample_count:n ()
                              in
                              if Tomo.Health.is_rejected verdict then
                                (profiles, proc :: rejected)
                              else
                                let model_n =
                                  Tomo.Model.of_cfg ~call_residual:0
                                    ~window_correction:0 (Cfg.of_proc natural pi)
                                in
                                if
                                  Tomo.Model.num_params model_n
                                  <> Array.length r.Tomo.Em.theta
                                then (profiles, rejected)
                                else
                                  let freq =
                                    Tomo.Model.freq_of_theta model_n
                                      ~theta:r.Tomo.Em.theta
                                      ~invocations:(float_of_int n)
                                  in
                                  ((proc, freq) :: profiles, rejected)
                      end)
                    ([], []) (Program.procs natural)
                in
                let rewritten =
                  try
                    Layout.Rewrite.apply_all natural
                      ~algorithm:Layout.Algorithms.pettis_hansen ~profiles
                  with e ->
                    raise
                      (Degraded_badly
                         (Printf.sprintf "degraded placement raised %s"
                            (Printexc.to_string e)))
                in
                List.iter
                  (fun proc ->
                    match
                      (Program.find_proc natural proc, Program.find_proc rewritten proc)
                    with
                    | Some a, Some b ->
                        if proc_fingerprint natural a <> proc_fingerprint rewritten b
                        then
                          raise
                            (Degraded_badly
                               (Printf.sprintf
                                  "rejected procedure %s was rewritten by placement"
                                  proc))
                    | _ ->
                        raise
                          (Degraded_badly
                             (Printf.sprintf "procedure %s missing after rewrite"
                                proc)))
                  rejected;
                Pass
              with Degraded_badly msg -> Fail msg))

(* ------------------------------------------------------------------ *)
(* Oracle 6: the streaming path equals its one-shot reference.        *)
(* ------------------------------------------------------------------ *)

(* Feed [records] through one resumable collector, draining before every
   record the split predicate picks, and check the result against one
   {!Probes.collect_lossy_records} call.  [Some msg] on a disagreement. *)
let split_collect_mismatch ?max_window ~program ~resolution ~split records =
  let one = Probes.collect_lossy_records ?max_window ~program ~resolution records in
  let c = Probes.Collector.create ?max_window ~program ~resolution () in
  let bound = List.length (Program.procs program) in
  let parts = Hashtbl.create 8 in
  let take () =
    List.iter
      (fun (proc, s) ->
        Hashtbl.replace parts proc
          (s :: Option.value ~default:[] (Hashtbl.find_opt parts proc)))
      (Probes.Collector.drain c)
  in
  let overflow = ref None in
  List.iteri
    (fun i r ->
      if split () then take ();
      Probes.Collector.feed c r;
      let depth = Probes.Collector.open_frames c in
      if depth > bound && !overflow = None then
        overflow :=
          Some (Printf.sprintf "record %d: %d open frames for %d procedures" i depth bound))
    records;
  take ();
  let merged =
    Hashtbl.fold (fun proc ss acc -> (proc, Array.concat (List.rev ss)) :: acc) parts []
    |> List.sort compare
  in
  let as_hex set = List.map (fun (proc, s) -> (proc, Array.map hex s)) set in
  let total = Probes.Collector.discarded c + Probes.Collector.open_frames c in
  match !overflow with
  | Some msg -> Some msg
  | None ->
      if as_hex merged <> as_hex one.Probes.samples then
        Some "split collection closed different windows than one-shot collection"
      else if total <> one.Probes.discarded then
        Some
          (Printf.sprintf "split discarded+open = %d, one-shot discarded = %d" total
             one.Probes.discarded)
      else None

(* Signature-space Online vs. the per-path reference, compared after
   every observation of the stream.  [Some msg] on a disagreement. *)
let online_mismatch ~decay ~sigma paths stream =
  let fast = Tomo.Online.create ~decay ~sigma paths in
  let dense = Tomo.Online.create ~decay ~sigma paths in
  let differs a b = hex a <> hex b in
  let rec go i =
    if i = Array.length stream then None
    else begin
      Tomo.Online.observe fast stream.(i);
      Tomo.Online.Dense.observe dense stream.(i);
      let at = Printf.sprintf "observation %d (%s)" i (hex stream.(i)) in
      let tf = Tomo.Online.theta fast and td = Tomo.Online.theta dense in
      let wf = Tomo.Online.effective_weight fast
      and wd = Tomo.Online.effective_weight dense in
      if Array.exists2 differs tf td then
        Some
          (Printf.sprintf "%s: theta signature=[%s] dense=[%s]" at
             (String.concat ";" (Array.to_list (Array.map hex tf)))
             (String.concat ";" (Array.to_list (Array.map hex td))))
      else if differs wf wd then
        Some (Printf.sprintf "%s: weight signature=%s dense=%s" at (hex wf) (hex wd))
      else go (i + 1)
    end
  in
  go 0

let streaming p rng ~env_seed (c : Compile.t) =
  let fault_seed = Stats.Rng.int rng 1_000_000 in
  let fconfig = draw_fault_config rng in
  let gap = 1 + Stats.Rng.int rng 24 in
  let decay = if Stats.Rng.bool rng then 1.0 else 0.999 in
  let sigma = 0.5 +. Stats.Rng.float rng 4.0 in
  let instrumented = Asm.assemble (Probes.instrument c.Compile.items) in
  match run_program ~env_seed ~invocations:p.em_invocations instrumented with
  | Error msg -> Fail (Printf.sprintf "instrumented run: %s" msg)
  | Ok m -> (
      let devices = Machine.devices m in
      let log = Devices.probe_log devices in
      if log = [] then Skip "empty probe log"
      else
        let resolution = Devices.timer_resolution devices in
        let perturbed, _ = Transport.perturb ~seed:fault_seed fconfig log in
        let check records ~split =
          split_collect_mismatch ~program:instrumented ~resolution ~split records
        in
        let collector_failure =
          List.find_map Fun.id
            [
              check log ~split:(fun () -> true);
              check perturbed ~split:(fun () -> true);
              check perturbed ~split:(fun () -> Stats.Rng.int rng gap = 0);
            ]
        in
        match collector_failure with
        | Some msg -> Fail ("resumable collector: " ^ msg)
        | None -> (
            (* Online over every tractable procedure's clean windows, plus
               values no path explains (far below, far above, between). *)
            let clean =
              (Probes.collect_lossy_records ~program:instrumented ~resolution log)
                .Probes.samples
            in
            let online_failure =
              List.find_map
                (fun (pi : Program.proc_info) ->
                  let samples = Probes.samples_for clean pi.Program.name in
                  let model =
                    Tomo.Model.of_cfg (Cfg.of_proc_name instrumented pi.Program.name)
                  in
                  if Array.length samples = 0 || Tomo.Model.num_params model = 0 then None
                  else
                    match enumerate p model with
                    | Error _ -> None
                    | Ok paths ->
                        let lo = Tomo.Paths.min_cost paths
                        and hi = Tomo.Paths.max_cost paths in
                        let stream =
                          Array.append samples
                            [| lo -. 4000.0; hi +. 4000.0; ((lo +. hi) /. 2.0) +. 0.5 |]
                        in
                        (* Also at the σ of a jitter-free timer, where an
                           observation reaches one or two signatures; a
                           fixed value, so the case RNG draws as before. *)
                        List.find_map
                          (fun sigma ->
                            Option.map
                              (fun msg ->
                                Printf.sprintf "%s sigma=%g: %s" pi.Program.name sigma msg)
                              (online_mismatch ~decay ~sigma paths stream))
                          [ sigma; Tomo.Em.default_sigma ~resolution:1 ~jitter:0.0 ])
                (Program.procs instrumented)
            in
            match online_failure with
            | Some msg ->
                Fail ("signature Online diverged from the per-path reference: " ^ msg)
            | None -> Pass))

(* ------------------------------------------------------------------ *)
(* Oracle 7: the interpreter loop agrees with the reference stepper.  *)
(* ------------------------------------------------------------------ *)

(* Everything one interpreter run leaves behind. *)
type interp_run = {
  outcomes : (int, string) result list;
      (* Per call: its cycles, or the fault that ended the run. *)
  run_stats : Machine.stats;
  pc_sp : int * int;
  regs : int array;
  mem : int array;
  tx_words : int list;
  probes : Devices.probe_record list;
  counters : (int * int) list;
  led_state : int * int;
  branches : (string * (int * (int * int)) list) list;
}

(* Invoke [calls] in order on a fresh machine, stopping at the first
   fault.  Before each call the radio queue gets a word and the clock
   idles, both a function of the call index only, so two interpreters
   that agree see the same inputs throughout. *)
let interp_run ~run_proc ~prediction ~mem_words ~fuel ~env binary calls =
  let devices = Devices.create () in
  Env.attach (Env.create env) devices;
  let m = Machine.create ~mem_words ~prediction ~program:binary ~devices () in
  let oracle = Profilekit.Oracle.attach m in
  let rec go i calls acc =
    match calls with
    | [] -> List.rev acc
    | proc :: rest -> (
        Devices.radio_push_rx devices ((i * 37) land 1023);
        Machine.idle m (i * 13 mod 97);
        match run_proc ?fuel m proc with
        | cycles -> go (i + 1) rest (Ok cycles :: acc)
        | exception Machine.Fault msg -> List.rev (Error msg :: acc))
  in
  let outcomes = go 0 calls [] in
  {
    outcomes;
    run_stats = Machine.stats m;
    pc_sp = (Machine.pc m, Machine.sp m);
    regs = Array.init Isa.num_regs (Machine.reg m);
    mem = Array.init mem_words (Machine.read_mem m);
    tx_words = Devices.tx_log devices;
    probes = Devices.probe_log devices;
    counters = Devices.counters devices;
    led_state = (Devices.leds devices, Devices.led_writes devices);
    branches =
      List.map
        (fun (pi : Program.proc_info) ->
          (pi.Program.name, Profilekit.Oracle.counts oracle ~proc:pi.Program.name))
        (Program.procs binary);
  }

let pp_stats (s : Machine.stats) =
  Printf.sprintf "{instr=%d cycles=%d cond=%d taken=%d mispredicted=%d jumps=%d calls=%d ret=%d}"
    s.instructions s.cycles s.cond_branches s.taken_cond_branches s.mispredicted_branches
    s.unconditional_transfers s.calls s.returns

let pp_outcome = function
  | Ok cycles -> Printf.sprintf "%d cycles" cycles
  | Error msg -> Printf.sprintf "fault %S" msg

let interpreter_mismatch ?(prediction = Machine.Predict_not_taken) ?(mem_words = 4096) ?fuel
    ~env binary calls =
  let run run_proc = interp_run ~run_proc ~prediction ~mem_words ~fuel ~env binary calls in
  let a = run Machine.run_proc and b = run Machine.Reference.run_proc in
  let differs name f = if f a <> f b then Some (name ^ " differ") else None in
  let rec first_outcome i xs ys =
    match (xs, ys) with
    | x :: xs, y :: ys when x = y -> first_outcome (i + 1) xs ys
    | x :: _, y :: _ ->
        Some (Printf.sprintf "call %d: loop %s, reference %s" i (pp_outcome x) (pp_outcome y))
    | [], [] -> None
    | _ -> Some (Printf.sprintf "call %d: one run stopped, the other did not" i)
  in
  List.find_map Fun.id
    [
      first_outcome 0 a.outcomes b.outcomes;
      (if a.run_stats <> b.run_stats then
         Some
           (Printf.sprintf "stats: loop %s, reference %s" (pp_stats a.run_stats)
              (pp_stats b.run_stats))
       else None);
      differs "pc and sp" (fun r -> r.pc_sp);
      differs "registers" (fun r -> r.regs);
      differs "memory" (fun r -> r.mem);
      differs "radio tx logs" (fun r -> r.tx_words);
      differs "probe logs" (fun r -> r.probes);
      differs "counters" (fun r -> r.counters);
      differs "LED states" (fun r -> r.led_state);
      differs "oracle branch counts" (fun r -> r.branches);
    ]

let interpreter p rng ~env_seed (c : Compile.t) =
  let natural = c.Compile.program in
  let instrumented = Asm.assemble (Probes.instrument c.Compile.items) in
  let placed = Layout.Rewrite.program natural ~placements:(random_placements rng natural) in
  let fuel = 1 + Stats.Rng.int rng 256 in
  let mem_words = 17 + Stats.Rng.int rng 48 in
  let env = Gen.env_config ~seed:env_seed in
  let calls = Compile.init_proc_name :: List.init p.invocations (fun _ -> Gen.task_name) in
  let check label ?prediction ?mem_words ?fuel binary () =
    Option.map
      (fun msg -> Printf.sprintf "%s: %s" label msg)
      (interpreter_mismatch ?prediction ?mem_words ?fuel ~env binary calls)
  in
  let runs =
    List.concat_map
      (fun (name, binary) ->
        [
          check (name ^ ", not-taken") ~prediction:Machine.Predict_not_taken binary;
          check (name ^ ", btfn") ~prediction:Machine.Predict_btfn binary;
        ])
      [ ("natural", natural); ("instrumented", instrumented); ("placed", placed) ]
    @ [
        check (Printf.sprintf "natural, fuel %d" fuel) ~fuel natural;
        check (Printf.sprintf "instrumented, %d memory words" mem_words) ~mem_words instrumented;
      ]
  in
  match List.find_map (fun run -> run ()) runs with
  | None -> Pass
  | Some msg -> Fail ("interpreter loop diverged from Machine.Reference: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Oracle 8: layouts scored from one evaluation run.                  *)
(* ------------------------------------------------------------------ *)

(* The first field that differs between two evaluations of a binary. *)
let diff_variants (a : P.variant) (b : P.variant) =
  let fields =
    [
      ("stats", pp_stats a.P.stats, pp_stats b.P.stats);
      ("taken_transfers", string_of_int a.P.taken_transfers, string_of_int b.P.taken_transfers);
      ("busy_cycles", string_of_int a.P.busy_cycles, string_of_int b.P.busy_cycles);
      ("idle_cycles", string_of_int a.P.idle_cycles, string_of_int b.P.idle_cycles);
      ("tx_words", string_of_int a.P.tx_words, string_of_int b.P.tx_words);
      ("flash_words", string_of_int a.P.flash_words, string_of_int b.P.flash_words);
      ("taken_rate", hex a.P.taken_rate, hex b.P.taken_rate);
    ]
  in
  match List.find_opt (fun (_, x, y) -> x <> y) fields with
  | Some (name, x, y) -> Printf.sprintf "%s: %s vs %s" name x y
  | None -> "binary or label"

let layout_eval p rng ~env_seed (program : Ast.program) (c : Compile.t) =
  let natural = c.Compile.program in
  match run_program ~env_seed ~invocations:1 natural with
  | Error msg -> (Skip ("natural run faults: " ^ msg), (0, 0))
  | Ok m ->
      (* One task's cycles, roughly ([__init] included).  Periods range
         up to twice that, so about half the cases overload the node:
         timers fire while a task runs, and the guard has to fail. *)
      let task = Stdlib.max 1 (Machine.cycles m) in
      let period = 1 + Stats.Rng.int rng (2 * task) in
      let offset = Stats.Rng.int rng task in
      let radio = Stats.Rng.bool rng in
      let env = Gen.env_config ~seed:env_seed in
      let workload =
        {
          Workloads.name = "fuzz";
          description = "a generated program as periodic and radio tasks";
          program;
          tasks =
            { Node.proc = Gen.task_name; source = Node.Periodic { period; offset } }
            :: (if radio then [ { Node.proc = Gen.task_name; source = Node.On_radio_rx } ]
                else []);
          env_config =
            (if radio then
               {
                 env with
                 Env.radio =
                   Env.Poisson
                     { per_kilocycle = 1000.0 /. float_of_int task; payload_lo = 0; payload_hi = 255 };
               }
             else env);
          profiled = [];
          horizon = task * p.invocations;
        }
      in
      let config = { P.default_config with P.seed = env_seed } in
      let placed =
        List.init p.placement_rounds (fun i ->
            (Printf.sprintf "placed %d" (i + 1), random_placements rng natural))
      in
      let full binary label = P.run_binary ~config workload binary ~label in
      begin
        match P.evaluate_layouts config workload ~natural:("natural", natural) placed with
        | exception (Machine.Fault msg as e) -> (
            (* It must raise what the full runs, in order, raise first. *)
            let binaries =
              natural
              :: List.map (fun (_, placements) -> Layout.Rewrite.program natural ~placements) placed
            in
            match
              List.find_map
                (fun binary ->
                  match full binary "" with exception e' -> Some (binary, e') | _ -> None)
                binaries
            with
            | Some (binary, e') when e' = e ->
                ( (if binary = natural then Skip ("natural run faults: " ^ msg) else Pass),
                  (0, 0) )
            | _ -> (Fail ("evaluate_layouts raised what no full run raises first: " ^ msg), (0, 0)))
        | variants -> (
            let runs =
              List.fold_left
                (fun (seen, d, f) (v : P.variant) ->
                  if List.mem v.P.binary seen then (seen, d, f)
                  else if v.P.derived then (v.P.binary :: seen, d + 1, f)
                  else (v.P.binary :: seen, d, f + 1))
                ([ natural ], 0, 0) variants
            in
            let _, derived, fell_back = runs in
            let mismatch =
              List.find_map
                (fun (v : P.variant) ->
                  let alone = full v.P.binary v.P.label in
                  if { v with P.derived = false } = alone then None
                  else
                    Some
                      (Printf.sprintf "%s (%s): %s" v.P.label
                         (if v.P.derived then "derived" else "full")
                         (diff_variants v alone)))
                variants
            in
            match mismatch with
            | None -> (Pass, (derived, fell_back))
            | Some msg ->
                ( Fail
                    (Printf.sprintf "period %d%s: evaluate_layouts differs from run_binary: %s"
                       period
                       (if radio then " + radio" else "")
                       msg),
                  (derived, fell_back) ))
      end
