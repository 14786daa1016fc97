(* ctomo: command-line front end for the Code Tomography pipeline.

   Subcommands:
     list      enumerate bundled workloads
     inspect   static structure of a workload (source, CFGs)
     dot       Graphviz CFG of one procedure
     trace     cycle-annotated instruction trace of a procedure
     profile   run the probe-instrumented binary and estimate branch
               probabilities, comparing against the simulation oracle
               (--save-profile persists the result)
     place     full pipeline: profile, estimate, place, evaluate layouts
               (--profile reuses a saved profile)
     report    estimates with confidence intervals + fit checks + layout +
               energy, in one shot
     fleet     simulate an N-node deployment streaming probe batches over
               lossy links; fuse per-node online estimates and place
     overhead  instrumentation cost comparison (probes vs edge counters)
     asm       assemble a .s file; hexdump, disassemble or run it

   Shared flags (workload/timing/faults/robustness/-j) live in
   Ctomo_flags so every subcommand documents them identically. *)

open Cmdliner
open Ctomo_flags
module P = Codetomo.Pipeline
module Cfg = Cfgir.Cfg
module Program = Mote_isa.Program

(* --- list --- *)

let list_cmd =
  let run () =
    List.iter
      (fun w ->
        Printf.printf "%-10s %s (%d tasks, horizon %d cycles)\n" w.Workloads.name
          w.Workloads.description (List.length w.Workloads.tasks) w.Workloads.horizon)
      Workloads.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List bundled workloads") Term.(const run $ const ())

(* --- inspect --- *)

let inspect_cmd =
  let run w =
    let c = Workloads.compiled w in
    let program = c.Mote_lang.Compile.program in
    Printf.printf "workload %s: %d flash words\n\n" w.Workloads.name
      (Program.flash_words program);
    Format.printf "%a@." Mote_lang.Ast.pp_program w.Workloads.program;
    List.iter
      (fun cfg ->
        if cfg.Cfg.proc.Program.name <> Mote_lang.Compile.init_proc_name then
          Format.printf "%a@." Cfg.pp cfg)
      (Cfg.of_program program)
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Show a workload's source and control-flow graphs")
    Term.(const run $ workload_arg)

(* --- dot --- *)

let dot_cmd =
  let proc_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "p"; "proc" ] ~docv:"PROC" ~doc:"Procedure name.")
  in
  let run w proc =
    let c = Workloads.compiled w in
    match Cfg.of_proc_name c.Mote_lang.Compile.program proc with
    | cfg -> print_string (Cfg.to_dot cfg)
    | exception Not_found ->
        Printf.eprintf "no procedure %S in %s\n" proc w.Workloads.name;
        exit 1
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit a Graphviz CFG for one procedure")
    Term.(const run $ workload_arg $ proc_arg)

(* --- profile --- *)

let save_profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-profile" ] ~docv:"FILE"
        ~doc:"Write the estimated edge-frequency profiles to FILE (feed it back with 'place --profile').")

let profile_cmd =
  let run w seed resolution jitter horizon save domains faults opts =
    guarded @@ fun () ->
    with_pool domains @@ fun pool ->
    let config = config_of seed resolution jitter horizon faults in
    let run = P.profile ~config w in
    Printf.printf "profiled %s: %d busy cycles, %d tasks dropped\n\n" w.Workloads.name
      run.P.node_stats.Mote_os.Node.busy_cycles
      run.P.node_stats.Mote_os.Node.tasks_dropped;
    print_transport run;
    let estimations =
      P.estimate ~ctx:(P.Ctx.of_pool pool) ~opts run
    in
    List.iter
      (fun e ->
        let samples = List.assoc e.P.proc run.P.samples in
        if Array.length samples = 0 then
          Printf.printf "%s: no invocations observed (%s)\n\n" e.P.proc
            (Tomo.Health.to_string e.P.health)
        else begin
          let s = Stats.Summary.of_array samples in
          Printf.printf "%s: %d samples, mean window %.1f cycles (sd %.1f)\n" e.P.proc
            e.P.sample_count (Stats.Summary.mean s) (Stats.Summary.stddev s);
          Printf.printf "  estimated theta: %s\n" (theta_str e.P.estimate.Tomo.Estimator.theta);
          Printf.printf "  oracle theta:    %s\n" (theta_str e.P.truth);
          Printf.printf "  MAE: %.4f%s\n" e.P.mae
            (if e.P.estimate.Tomo.Estimator.truncated_paths then
               "  (path enumeration truncated)"
             else "");
          (match e.P.sanitize_report with
          | Some r ->
              Printf.printf "  sanitize: %s\n" (Format.asprintf "%a" Tomo.Sanitize.pp_report r)
          | None -> ());
          if not (Tomo.Health.is_healthy e.P.health) then
            Printf.printf "  health: %s\n" (Tomo.Health.to_string e.P.health);
          print_newline ()
        end)
      estimations;
    match save with
    | None -> ()
    | Some path ->
        Cfgir.Profile_io.save ~path (P.estimated_freqs run estimations);
        Printf.printf "profiles written to %s\n" path
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Profile a workload and estimate its branch probabilities")
    Term.(
      const run $ workload_arg $ seed_arg $ resolution_arg $ jitter_arg $ horizon_arg
      $ save_profile_arg $ domains_arg $ faults_term $ opts_term)

(* --- place --- *)

let load_profile_arg =
  Arg.(
    value
    & opt (some non_dir_file) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:"Use a saved profile (from 'profile --save-profile') for the tomography layout instead of re-estimating.")

let place_cmd =
  let run w seed resolution jitter horizon profile_file domains faults opts =
    guarded @@ fun () ->
    with_pool domains @@ fun pool ->
    let config = config_of seed resolution jitter horizon faults in
    let run = P.profile ~config w in
    print_transport run;
    let variants =
      match profile_file with
      | None ->
          P.compare_layouts ~ctx:(P.Ctx.of_pool pool) ~opts run
      | Some path ->
          let original = P.natural_binary run in
          let lookup name =
            match Cfg.of_proc_name original name with
            | cfg -> Some cfg
            | exception Not_found -> None
          in
          let placements =
            List.map
              (fun (proc, freq) -> (proc, Layout.Algorithms.pettis_hansen freq))
              (Cfgir.Profile_io.load ~path ~lookup)
          in
          P.evaluate_layouts ~ctx:(P.Ctx.of_pool pool) (P.fresh_inputs config) w
            ~natural:("natural", original)
            [ ("saved-profile", placements) ]
    in
    let rows =
      List.map
        (fun v ->
          [
            v.P.label;
            string_of_int v.P.taken_transfers;
            Report.Table.fmt_pct v.P.taken_rate;
            string_of_int v.P.busy_cycles;
            string_of_int v.P.flash_words;
          ])
        variants
    in
    print_endline
      (Report.Table.render
         ~headers:[ "layout"; "taken"; "rate"; "busy cycles"; "flash(w)" ]
         rows)
  in
  Cmd.v
    (Cmd.info "place"
       ~doc:"Run the full pipeline and compare layouts (natural/worst/tomography/perfect)")
    Term.(
      const run $ workload_arg $ seed_arg $ resolution_arg $ jitter_arg $ horizon_arg
      $ load_profile_arg $ domains_arg $ faults_term $ opts_term)

(* --- overhead --- *)

let overhead_cmd =
  let run w seed resolution jitter horizon =
    guarded @@ fun () ->
    let config = config_of seed resolution jitter horizon None in
    let row ((v : P.variant), (r : Profilekit.Overhead.report), busy_pct) =
      [
        v.P.label;
        string_of_int r.Profilekit.Overhead.flash_words;
        string_of_int r.Profilekit.Overhead.flash_overhead_words;
        string_of_int r.Profilekit.Overhead.ram_words;
        string_of_int v.P.busy_cycles;
        (match busy_pct with Some p -> Printf.sprintf "%.1f%%" p | None -> "n/a");
      ]
    in
    print_endline
      (Report.Table.render
         ~headers:[ "instr."; "flash(w)"; "+flash"; "ram(w)"; "busy"; "+busy%" ]
         (List.map row (P.overhead ~config w)))
  in
  Cmd.v
    (Cmd.info "overhead" ~doc:"Compare instrumentation overheads on one workload")
    Term.(const run $ workload_arg $ seed_arg $ resolution_arg $ jitter_arg $ horizon_arg)

(* --- trace --- *)

let trace_cmd =
  let proc_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "p"; "proc" ] ~docv:"PROC" ~doc:"Procedure to trace.")
  in
  let count_arg =
    Arg.(value & opt int 1 & info [ "n" ] ~docv:"N" ~doc:"Invocations to trace.")
  in
  let run w proc n seed =
    guarded @@ fun () ->
    let c = Workloads.compiled w in
    let program = c.Mote_lang.Compile.program in
    if Program.find_proc program proc = None then begin
      Printf.eprintf "no procedure %S in %s\n" proc w.Workloads.name;
      exit 1
    end;
    let devices = Mote_machine.Devices.create () in
    let env = Env.create { (w.Workloads.env_config) with Env.seed } in
    Env.attach env devices;
    let machine = Mote_machine.Machine.create ~program ~devices () in
    ignore (Mote_machine.Machine.run_proc machine Mote_lang.Compile.init_proc_name);
    Mote_machine.Machine.set_trace_hook machine
      (Some
         (fun ~pc ~instr ~cycles ->
           Printf.printf "%8d  %4d: %s\n" cycles pc
             (Mote_isa.Isa.to_string string_of_int instr)));
    for i = 1 to n do
      Printf.printf "--- invocation %d ---\n" i;
      ignore (Mote_machine.Machine.run_proc machine proc)
    done
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print a cycle-annotated instruction trace of a procedure's invocations")
    Term.(const run $ workload_arg $ proc_arg $ count_arg $ seed_arg)

(* --- report --- *)

let report_cmd =
  let run w seed resolution jitter horizon domains faults opts =
    guarded @@ fun () ->
    with_pool domains @@ fun pool ->
    let config = config_of seed resolution jitter horizon faults in
    let run = P.profile ~config w in
    Printf.printf "=== %s: %s ===\n\n" w.Workloads.name w.Workloads.description;
    print_transport run;
    (* Estimation with uncertainty and fit diagnostics: one estimate per
       procedure, whose samples and path set the interval and the fit
       read, and which the layout table below places with. *)
    let per_proc =
      Par.Pool.map_list pool
        (fun proc ->
          let e, samples, paths = P.estimate_proc ~opts run proc in
          match paths with
          | Some paths when not (Tomo.Health.is_rejected e.P.health) ->
              let theta = e.P.estimate.Tomo.Estimator.theta in
              let sigma = Option.get e.P.estimate.Tomo.Estimator.sigma in
              let ci = Tomo.Confidence.information paths ~samples ~point:theta ~sigma in
              let fit = Tomo.Fit.check ~sigma paths ~theta ~samples in
              (* The verdict folds in all three degradation signals: the
                 sample floor, EM convergence, and how wide the widest
                 interval came out. *)
              let width =
                Array.fold_left
                  (fun acc itv -> Stdlib.max acc (Tomo.Confidence.width itv))
                  0.0 ci.Tomo.Confidence.intervals
              in
              (e, Tomo.Health.apply_ci_width ~width e.P.health, Some (ci, fit))
          | _ -> (e, e.P.health, None))
        w.Workloads.profiled
    in
    List.iter
      (fun (e, health, result) ->
        match result with
        | None -> Printf.printf "%s: %s\n\n" e.P.proc (Tomo.Health.to_string health)
        | Some (ci, fit) ->
            Printf.printf "%s (%d samples):\n" e.P.proc e.P.sample_count;
            Array.iteri
              (fun k i ->
                Printf.printf
                  "  theta[%d] = %.3f  [%.3f, %.3f]   (oracle %.3f)\n" k
                  i.Tomo.Confidence.point i.Tomo.Confidence.lo i.Tomo.Confidence.hi
                  e.P.truth.(k))
              ci.Tomo.Confidence.intervals;
            (match e.P.sanitize_report with
            | Some r ->
                Printf.printf "  sanitize: %s\n"
                  (Format.asprintf "%a" Tomo.Sanitize.pp_report r)
            | None -> ());
            if not (Tomo.Health.is_healthy health) then
              Printf.printf "  health: %s\n" (Tomo.Health.to_string health);
            Printf.printf "  fit: %s -> %s\n\n"
              (Format.asprintf "%a" Tomo.Fit.pp fit)
              (if Tomo.Fit.acceptable fit then "acceptable" else "SUSPECT"))
      per_proc;
    (* Layout and energy consequences of the estimates printed above.
       Placement reads each estimate's own health, not the interval
       verdict. *)
    let variants =
      P.compare_estimated ~ctx:(P.Ctx.of_pool pool) run
        (List.map (fun (e, _, _) -> e) per_proc)
    in
    let horizon_cycles = Option.value ~default:w.Workloads.horizon config.P.horizon in
    let rows =
      List.map
        (fun v ->
          let energy =
            Mote_os.Energy.of_parts ~busy_cycles:v.P.busy_cycles
              ~idle_cycles:(horizon_cycles - v.P.busy_cycles) ~tx_words:v.P.tx_words ()
          in
          let days =
            Mote_os.Energy.lifetime_days energy ~horizon_cycles
              ~cycles_per_second:1_000_000
          in
          [
            v.P.label;
            string_of_int v.P.taken_transfers;
            Report.Table.fmt_pct v.P.taken_rate;
            string_of_int v.P.busy_cycles;
            Printf.sprintf "%.3f" energy.Mote_os.Energy.total_mj;
            Printf.sprintf "%.0f" days;
          ])
        variants
    in
    print_endline
      (Report.Table.render
         ~headers:[ "layout"; "stalls"; "rate"; "busy cycles"; "energy mJ"; "life (days)" ]
         rows)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "One-stop workload report: estimates with confidence intervals and fit checks, \
          layout comparison, energy and projected battery life")
    Term.(
      const run $ workload_arg $ seed_arg $ resolution_arg $ jitter_arg $ horizon_arg
      $ domains_arg $ faults_term $ robustness_term)

(* --- fleet --- *)

let fleet_cmd =
  let nodes_arg =
    Arg.(value & opt int 8 & info [ "nodes" ] ~docv:"N" ~doc:"Number of simulated nodes.")
  in
  let rounds_arg =
    Arg.(
      value & opt int 10
      & info [ "rounds" ] ~docv:"N" ~doc:"Aggregation rounds (one uplink batch per node per round).")
  in
  let batch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "batch" ] ~docv:"N"
          ~doc:"Records per uplink batch (default: spread each node's log evenly over the rounds).")
  in
  let field_arg =
    Arg.(
      value & flag
      & info [ "field" ]
          ~doc:
            "Use the canonical field-deployment link model (5% loss, 1% corruption) as the \
             base fault model.  Explicit $(b,--loss)/$(b,--corrupt)/$(b,--duplicate)/$(b,--reorder) \
             flags replace it.")
  in
  let no_vary_arg =
    Arg.(
      value & flag
      & info [ "no-vary" ]
          ~doc:"Give every node identical fault rates instead of deterministic per-node variation.")
  in
  let decay_arg =
    Arg.(
      value & opt float 0.999
      & info [ "decay" ] ~docv:"D" ~doc:"Forgetting factor of the per-node online estimators.")
  in
  let replace_every_arg =
    Arg.(
      value & opt int 0
      & info [ "replace-every" ] ~docv:"K"
          ~doc:"Re-run placement every K rounds (0 = final round only; the final round always places).")
  in
  let timings_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "timings" ] ~docv:"FILE"
          ~doc:"Write wall-clock seconds as bench-compatible timings JSON.")
  in
  let run w seed resolution jitter horizon domains faults field no_vary nodes rounds batch
      decay min_samples replace_every timings =
    guarded @@ fun () ->
    with_pool domains @@ fun pool ->
    let session = Codetomo.Session.create ~pool () in
    let base_faults =
      match (faults, field) with
      | Some f, _ -> f
      | None, true -> Profilekit.Transport.field ()
      | None, false -> Profilekit.Transport.default
    in
    let config =
      {
        (Fleet.Service.default_config w) with
        Fleet.Service.nodes;
        rounds;
        batch;
        seed;
        faults = base_faults;
        vary_faults = not no_vary;
        pipeline = config_of seed resolution jitter horizon None;
        decay;
        min_samples;
        replace_every;
      }
    in
    let t0 = Unix.gettimeofday () in
    let report = Fleet.Service.run ~session config in
    let seconds = Unix.gettimeofday () -. t0 in
    Printf.printf "fleet %s: %d nodes, %d rounds, seed %d\n" w.Workloads.name nodes rounds
      seed;
    List.iter
      (fun (n : Fleet.Sim.node) ->
        Printf.printf
          "  node %d: env seed %6d, drop %.3f corrupt %.3f duplicate %.3f reorder %.3f\n"
          n.Fleet.Sim.id n.Fleet.Sim.env_seed n.Fleet.Sim.faults.Profilekit.Transport.drop
          n.Fleet.Sim.faults.Profilekit.Transport.corrupt
          n.Fleet.Sim.faults.Profilekit.Transport.duplicate
          n.Fleet.Sim.faults.Profilekit.Transport.reorder)
      report.Fleet.Service.roster;
    print_newline ();
    let rows =
      List.map
        (fun (r : Fleet.Service.round_report) ->
          [
            string_of_int r.Fleet.Service.round;
            string_of_int r.Fleet.Service.delivered;
            string_of_int r.Fleet.Service.fed;
            string_of_int r.Fleet.Service.discarded;
            Printf.sprintf "%d/%d" r.Fleet.Service.admitted r.Fleet.Service.rejected;
            Printf.sprintf "%.4f" r.Fleet.Service.fused_mae;
            (match r.Fleet.Service.placement with
            | None -> "-"
            | Some p -> Printf.sprintf "%.1f%%" (100.0 *. p.Fleet.Service.reduction));
          ])
        report.Fleet.Service.round_reports
    in
    print_endline
      (Report.Table.render
         ~headers:[ "round"; "delivered"; "fed"; "discarded"; "admit/rej"; "fused MAE"; "reduction" ]
         rows);
    let final = report.Fleet.Service.final in
    Printf.printf
      "\nfinal placement (round %d, %s):\n  taken transfers %d -> %d across the fleet (%.1f%% reduction)\n"
      final.Fleet.Service.at_round final.Fleet.Service.label
      final.Fleet.Service.natural_taken final.Fleet.Service.placed_taken
      (100.0 *. final.Fleet.Service.reduction);
    List.iter
      (fun (id, procs) ->
        List.iter
          (fun (proc, h) ->
            if not (Tomo.Health.is_healthy h) then
              Printf.printf "  health: node %d %s: %s\n" id proc (Tomo.Health.to_string h))
          procs)
      report.Fleet.Service.health;
    List.iter
      (fun (proc, d) ->
        if d > 0.0 then Printf.printf "  drift: %s max window-to-window %.4f\n" proc d)
      report.Fleet.Service.drift;
    match timings with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Printf.fprintf oc
          "{\n  \"domains\": %d,\n  \"total_seconds\": %.3f,\n  \"experiments\": [\n    { \"name\": \"fleet\", \"seconds\": %.3f }\n  ]\n}\n"
          (Codetomo.Session.domains session) seconds seconds;
        close_out oc;
        Printf.eprintf "[timings written to %s]\n%!" path
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Simulate an N-node deployment streaming probe batches over lossy links; \
          fuse the per-node online estimates with health gating and place from the \
          fleet profile")
    Term.(
      const run $ workload_arg $ seed_arg $ resolution_arg $ jitter_arg $ horizon_arg
      $ domains_arg $ faults_term $ field_arg $ no_vary_arg $ nodes_arg $ rounds_arg
      $ batch_arg $ decay_arg $ min_samples_arg $ replace_every_arg $ timings_arg)

(* --- asm --- *)

let asm_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"FILE.s" ~doc:"Assembly source file.")
  in
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("hex", `Hex); ("dis", `Dis); ("run", `Run) ]) `Hex
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"hex: flash image; dis: disassembly; run: execute from 'main' until halt.")
  in
  let run file mode =
    guarded @@ fun () ->
    let ic = open_in file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Mote_isa.Parse.parse_program text with
    | exception Mote_isa.Parse.Parse_error { line; message } ->
        Printf.eprintf "%s:%d: %s\n" file line message;
        exit 1
    | exception Mote_isa.Asm.Error message ->
        Printf.eprintf "%s: %s\n" file message;
        exit 1
    | program -> (
        match mode with
        | `Hex -> print_string (Mote_isa.Encode.hexdump program)
        | `Dis -> Format.printf "%a@." Program.pp program
        | `Run ->
            let devices = Mote_machine.Devices.create () in
            let machine = Mote_machine.Machine.create ~program ~devices () in
            Mote_machine.Machine.run_from_symbol machine "main";
            let stats = Mote_machine.Machine.stats machine in
            Printf.printf "halted after %d instructions, %d cycles\n"
              stats.Mote_machine.Machine.instructions stats.Mote_machine.Machine.cycles;
            Printf.printf "r0=%d r1=%d r2=%d r3=%d leds=%d tx=[%s]\n"
              (Mote_machine.Machine.reg machine 0)
              (Mote_machine.Machine.reg machine 1)
              (Mote_machine.Machine.reg machine 2)
              (Mote_machine.Machine.reg machine 3)
              (Mote_machine.Devices.leds devices)
              (String.concat ";"
                 (List.map string_of_int (Mote_machine.Devices.tx_log devices))))
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Assemble a CT16 source file; dump, disassemble or run it")
    Term.(const run $ file_arg $ mode_arg)

let () =
  let info =
    Cmd.info "ctomo" ~version:"1.0.0"
      ~doc:"Code Tomography: estimation-based profiling for sensor network programs"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            inspect_cmd;
            dot_cmd;
            trace_cmd;
            profile_cmd;
            place_cmd;
            overhead_cmd;
            report_cmd;
            fleet_cmd;
            asm_cmd;
          ]))
