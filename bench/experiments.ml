(* The evaluation harness: one function per table/figure of the paper's
   evaluation (reconstructed — see DESIGN.md), each printing the
   corresponding table or ASCII figure. *)

module P = Codetomo.Pipeline
module Cfg = Cfgir.Cfg
module Freq = Cfgir.Freq
module Program = Mote_isa.Program
module Machine = Mote_machine.Machine
module Table = Report.Table
module Chart = Report.Chart

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

(* Every table is printed, and additionally dumped as CSV when
   CODETOMO_CSV_DIR is set — so the evaluation data can be re-plotted
   outside this harness. *)
let emit_table ~name ~headers rows =
  print_endline (Table.render ~headers rows);
  match Sys.getenv_opt "CODETOMO_CSV_DIR" with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (name ^ ".csv") in
      Report.Csv.write_file ~path ~headers rows;
      Printf.printf "[csv written to %s]\n" path

let f = Table.fmt_float
let pct = Table.fmt_pct

(* One Codetomo.Session per bench process: every experiment draws its
   profile runs, estimations and layout variants from the session's memo
   tables (so t4, f5 and f13 share one compare_layouts, F2 and F3 share
   seed-42 profiles, ...) and fans its sweeps out over the session's
   domain pool.  [set_domains] must be called before the first
   experiment runs; the bench driver does so from the -j flag. *)
let requested_domains : int option ref = ref None
let set_domains n = requested_domains := Some n

(* [set_reduced] swaps the f3, r13 and f15 sweeps for the small grids
   CI's smoke jobs gate on (the bench driver's --reduced flag); like
   [set_domains] it must be called before the first experiment runs.
   The full grids are the default and are what every published table
   uses. *)
let reduced = ref false
let set_reduced () = reduced := true
let grid ~full ~small = if !reduced then small else full

let session = lazy (Codetomo.Session.create ?domains:!requested_domains ())
let sess () = Lazy.force session
let domains () = Codetomo.Session.domains (sess ())

let profile ?config w = Codetomo.Session.profile (sess ()) ?config w

(* Order-preserving parallel map over the session pool.  Every task must
   derive its randomness from its own key (seed, sweep index), so the
   emitted tables are bit-identical at any domain count. *)
let pmap f xs = Codetomo.Session.map_list (sess ()) f xs

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

(* ------------------------------------------------------------------ *)
(* T1: benchmark characteristics.                                      *)
(* ------------------------------------------------------------------ *)

let t1 () =
  section "T1. Benchmark characteristics (static)";
  let rows =
    pmap
      (fun w ->
        let c = Codetomo.Session.compiled (sess ()) w in
        let program = c.Mote_lang.Compile.program in
        let cfgs =
          Cfg.of_program program
          |> List.filter (fun cfg ->
                 cfg.Cfg.proc.Program.name <> Mote_lang.Compile.init_proc_name)
        in
        let blocks = List.fold_left (fun acc cfg -> acc + Cfg.num_blocks cfg) 0 cfgs in
        let branches =
          List.fold_left (fun acc cfg -> acc + Cfg.static_cond_branches cfg) 0 cfgs
        in
        let loops =
          List.fold_left (fun acc cfg -> acc + List.length (Cfg.loop_headers cfg)) 0 cfgs
        in
        [
          w.Workloads.name;
          string_of_int (List.length cfgs);
          string_of_int blocks;
          string_of_int branches;
          string_of_int loops;
          string_of_int (Program.flash_words program);
          string_of_int (List.length w.Workloads.tasks);
        ])
      Workloads.all
  in
  emit_table ~name:"t1"
    ~headers:[ "workload"; "procs"; "blocks"; "branches"; "loops"; "flash(w)"; "tasks" ]
    rows

(* ------------------------------------------------------------------ *)
(* F2: estimation accuracy vs number of timing samples.                *)
(* ------------------------------------------------------------------ *)

let sample_points = [ 10; 30; 100; 300; 1000; 3000 ]

(* Small-sample MAE varies with which invocations happen to land in the
   prefix, so each point is a mean over independent environment seeds. *)
let f2_seeds = [ 42; 1042; 2042 ]

let f2 () =
  section
    "F2. Branch-probability MAE vs number of end-to-end timing samples\n\
     (EM; mean over 3 environment seeds)";
  (* Warm the (workload x seed) profile runs in parallel first, then fan
     the (workload x sample-count) estimation grid; each grid cell reads
     the memoized runs and estimates serially inside its own task. *)
  ignore
    (pmap
       (fun (w, seed) -> ignore (profile ~config:{ P.default_config with P.seed } w))
       (List.concat_map
          (fun w -> List.map (fun seed -> (w, seed)) f2_seeds)
          Workloads.all));
  let cells =
    pmap
      (fun (w, n) ->
        let maes =
          List.concat_map
            (fun seed ->
              let config = { P.default_config with P.seed } in
              List.map
                (fun e -> e.P.mae)
                (Codetomo.Session.estimate (sess ())
                   ~opts:{ P.default_opts with P.max_samples = Some n }
                   ~config w))
            f2_seeds
        in
        mean maes)
      (List.concat_map
         (fun w -> List.map (fun n -> (w, n)) sample_points)
         Workloads.all)
  in
  let series =
    List.mapi
      (fun i w ->
        let pts =
          List.mapi
            (fun j n ->
              (float_of_int n, List.nth cells ((i * List.length sample_points) + j)))
            sample_points
        in
        (w.Workloads.name, Array.of_list pts))
      Workloads.all
  in
  let rows =
    List.map
      (fun (name, pts) ->
        name :: List.map (fun (_, mae) -> f ~decimals:4 mae) (Array.to_list pts))
      series
  in
  emit_table ~name:"f2"
    ~headers:("workload" :: List.map (fun n -> Printf.sprintf "n=%d" n) sample_points)
    rows;
  print_endline
    (Chart.line ~log_x:true ~x_label:"samples" ~y_label:"MAE"
       ~title:"F2: estimation error vs sample count" series)

(* ------------------------------------------------------------------ *)
(* F3: accuracy vs timer resolution and jitter.                        *)
(* ------------------------------------------------------------------ *)

(* CI's perf-smoke job runs a reduced grid: fewer resolutions, jitters
   and seeds — still exercising every workload and both sweep axes end to
   end, but fast enough to gate on. *)
let resolutions () = grid ~full:[ 1; 2; 4; 8; 16; 32; 64 ] ~small:[ 1; 8; 64 ]

let f3_workloads () = [ Workloads.sense; Workloads.filter; Workloads.ctp ]

(* Individual runs are noisy at coarse resolutions (path costs alias into
   the same tick), so each point averages several environment seeds. *)
let f3_seeds () = grid ~full:[ 42; 142; 242 ] ~small:[ 42 ]

let f3 () =
  section "F3. Estimation MAE vs timer resolution (cycles/tick; EM, no jitter)";
  let resolutions = resolutions () in
  let mae_at w config =
    List.map
      (fun seed ->
        let config = { config with P.seed = seed } in
        mean
          (List.map (fun e -> e.P.mae) (Codetomo.Session.estimate (sess ()) ~config w)))
      (f3_seeds ())
    |> mean
  in
  (* Fan the full (workload x sweep-point) grid; each cell profiles and
     estimates its three seeds inside its own task, hitting the session
     memo for anything another cell (or experiment) already derived. *)
  let sweep points config_of =
    let grid =
      List.concat_map
        (fun w -> List.map (fun p -> (w, p)) points)
        (f3_workloads ())
    in
    let maes = pmap (fun (w, p) -> mae_at w (config_of p)) grid in
    List.mapi
      (fun i w ->
        let pts =
          List.mapi
            (fun j p -> (p, List.nth maes ((i * List.length points) + j)))
            points
        in
        (w.Workloads.name, Array.of_list pts))
      (f3_workloads ())
  in
  let series =
    sweep
      (List.map float_of_int resolutions)
      (fun r -> { P.default_config with P.timer_resolution = int_of_float r })
  in
  let rows =
    List.map
      (fun (name, pts) ->
        name :: List.map (fun (_, mae) -> f ~decimals:4 mae) (Array.to_list pts))
      series
  in
  emit_table ~name:"f3"
    ~headers:("workload" :: List.map (fun r -> Printf.sprintf "res=%d" r) resolutions)
    rows;
  print_endline
    (Chart.line ~log_x:true ~x_label:"timer resolution (cycles/tick)" ~y_label:"MAE"
       ~title:"F3a: estimation error vs timer resolution" series);
  (* Jitter sweep at resolution 1. *)
  let jitters = grid ~full:[ 0.0; 1.0; 2.0; 4.0; 8.0 ] ~small:[ 0.0; 4.0 ] in
  let jitter_series =
    sweep jitters (fun j -> { P.default_config with P.timer_jitter = j })
  in
  print_endline
    (Chart.line ~x_label:"timer jitter sigma (cycles)" ~y_label:"MAE"
       ~title:"F3b: estimation error vs timer jitter" jitter_series)

(* ------------------------------------------------------------------ *)
(* T4 / F5: placement quality.                                         *)
(* ------------------------------------------------------------------ *)

(* Memoized in the session: t4, f5 and f13 all read the same four
   variant runs, computed once. *)
let layout_variants w = Codetomo.Session.compare_layouts (sess ()) w

(* Warm every workload's variants in parallel before the tables read
   them back in order. *)
let warm_layout_variants () = ignore (pmap (fun w -> ignore (layout_variants w)) Workloads.all)

let t4 () =
  warm_layout_variants ();
  section
    "T4. Taken-transfer ('misprediction') counts and rates by layout\n\
     (evaluation on fresh inputs: profiling seed + 1000)";
  let rows =
    List.concat_map
      (fun w ->
        let variants = layout_variants w in
        List.map
          (fun v ->
            [
              w.Workloads.name;
              v.P.label;
              string_of_int v.P.taken_transfers;
              pct v.P.taken_rate;
              string_of_int v.P.busy_cycles;
              string_of_int v.P.flash_words;
            ])
          variants)
      Workloads.all
  in
  emit_table ~name:"t4"
    ~headers:[ "workload"; "layout"; "taken"; "taken rate"; "busy cycles"; "flash(w)" ]
    rows;
  (* Reduction summary. *)
  let rows =
    List.map
      (fun w ->
        let variants = layout_variants w in
        let get label = List.find (fun v -> v.P.label = label) variants in
        let nat = get "natural" and tomo = get "tomography" and perf = get "perfect" in
        let red v =
          1.0
          -. (float_of_int v.P.taken_transfers /. float_of_int nat.P.taken_transfers)
        in
        [
          w.Workloads.name;
          pct (red tomo);
          pct (red perf);
          pct
            (if nat.P.taken_transfers = perf.P.taken_transfers then 1.0
             else
               float_of_int (nat.P.taken_transfers - tomo.P.taken_transfers)
               /. float_of_int (nat.P.taken_transfers - perf.P.taken_transfers));
        ])
      Workloads.all
  in
  emit_table ~name:"t4_summary"
    ~headers:[ "workload"; "tomo reduction"; "perfect reduction"; "headroom captured" ]
    rows

let f5 () =
  warm_layout_variants ();
  section "F5. Execution cycles normalized to the natural layout";
  let labels = [ "natural"; "worst"; "tomography"; "perfect" ] in
  let rows =
    List.map
      (fun w ->
        let variants = layout_variants w in
        let get label = List.find (fun v -> v.P.label = label) variants in
        let nat = float_of_int (get "natural").P.busy_cycles in
        w.Workloads.name
        :: List.map
             (fun l -> f ~decimals:4 (float_of_int (get l).P.busy_cycles /. nat))
             labels)
      Workloads.all
  in
  emit_table ~name:"f5" ~headers:("workload" :: labels) rows;
  let series =
    List.map
      (fun label ->
        ( label,
          Array.of_list
            (List.mapi
               (fun i w ->
                 let variants = layout_variants w in
                 let get l = List.find (fun v -> v.P.label = l) variants in
                 let nat = float_of_int (get "natural").P.busy_cycles in
                 (float_of_int i, float_of_int (get label).P.busy_cycles /. nat))
               Workloads.all) ))
      labels
  in
  print_endline
    (Chart.line ~x_label:"workload index" ~y_label:"cycles vs natural"
       ~title:"F5: normalized cycles (x = workload index in T1 order)" series)

(* ------------------------------------------------------------------ *)
(* T6: profiling overhead — tomography probes vs full edge counters.   *)
(* ------------------------------------------------------------------ *)

let t6 () =
  section "T6. Profiling overhead: Code Tomography probes vs edge instrumentation";
  let rows =
    List.concat (pmap
      (fun w ->
        let compiled = Codetomo.Session.compiled (sess ()) w in
        List.map
          (fun ((v : P.variant), (r : Profilekit.Overhead.report), busy_pct) ->
            [
              w.Workloads.name;
              v.P.label;
              string_of_int r.Profilekit.Overhead.flash_words;
              string_of_int r.Profilekit.Overhead.flash_overhead_words;
              Printf.sprintf "%.1f%%" r.Profilekit.Overhead.flash_overhead_pct;
              string_of_int r.Profilekit.Overhead.ram_words;
              string_of_int v.P.busy_cycles;
              (match busy_pct with
              | Some p -> Printf.sprintf "%.1f%%" p
              | None -> "n/a");
            ])
          (P.overhead ~compiled w))
      Workloads.all)
  in
  emit_table ~name:"t6"
    ~headers:
      [
        "workload"; "instr."; "flash(w)"; "+flash"; "+flash%"; "ram(w)";
        "busy cycles"; "+cycles%";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* F7: EM convergence.                                                 *)
(* ------------------------------------------------------------------ *)

let f7 () =
  section "F7. EM convergence (log-likelihood and MAE per iteration)";
  let cases = [ (Workloads.sense, "sense_task"); (Workloads.ctp, "ctp_rx_task") ] in
  let series =
    List.concat_map
      (fun (w, proc) ->
        let run = profile w in
        let samples = List.assoc proc run.P.samples in
        let truth = List.assoc proc run.P.oracle_thetas in
        let model = P.model_of run proc in
        let paths = Tomo.Paths.enumerate model in
        let r =
          Tomo.Em.estimate ~sigma:(P.noise_sigma run.P.config) ~tol:0.0 ~max_iters:25
            paths ~samples
        in
        let maes =
          List.mapi
            (fun i (theta, _) ->
              (float_of_int (i + 1), Stats.Metrics.mae theta truth))
            r.Tomo.Em.trajectory
        in
        let lls = List.map snd r.Tomo.Em.trajectory in
        let ll_lo = List.fold_left Stdlib.min infinity lls in
        let ll_hi = List.fold_left Stdlib.max neg_infinity lls in
        let span = Stdlib.max 1e-9 (ll_hi -. ll_lo) in
        let lls_norm =
          List.mapi
            (fun i ll -> (float_of_int (i + 1), (ll -. ll_lo) /. span))
            lls
        in
        [
          (proc ^ " MAE", Array.of_list maes);
          (proc ^ " loglik (normalized)", Array.of_list lls_norm);
        ])
      cases
  in
  print_endline
    (Chart.line ~x_label:"EM iteration" ~y_label:"MAE / normalized loglik"
       ~title:"F7: EM convergence" series)

(* ------------------------------------------------------------------ *)
(* A8: estimator ablation.                                             *)
(* ------------------------------------------------------------------ *)

let a8 () =
  section "A8. Ablation: estimation method (MAE and resulting placement quality)";
  let methods = Tomo.Estimator.[ Em; Moments; Naive ] in
  ignore (pmap (fun w -> ignore (profile w)) Workloads.all);
  let rows =
    pmap
      (fun (w, m) ->
        let run = profile w in
        let est =
          Codetomo.Session.estimate (sess ()) ~opts:{ P.default_opts with P.method_ = m } w
        in
        let mae = mean (List.map (fun e -> e.P.mae) est) in
        let freqs = P.estimated_freqs run est in
        let binary =
          Layout.Rewrite.apply_all (P.natural_binary run)
            ~algorithm:Layout.Algorithms.pettis_hansen ~profiles:freqs
        in
        let v = P.run_binary ~config:(P.fresh_inputs run.P.config) w binary ~label:"x" in
        [
          w.Workloads.name;
          Tomo.Estimator.method_name m;
          f ~decimals:4 mae;
          string_of_int v.P.taken_transfers;
          string_of_int v.P.busy_cycles;
        ])
      (List.concat_map (fun w -> List.map (fun m -> (w, m)) methods) Workloads.all)
  in
  emit_table ~name:"a8"
    ~headers:[ "workload"; "method"; "MAE"; "taken after placement"; "busy cycles" ]
    rows

(* ------------------------------------------------------------------ *)
(* A9: placement-algorithm ablation under exact (oracle) profiles.     *)
(* ------------------------------------------------------------------ *)

let a9 () =
  section "A9. Ablation: placement algorithm under exact profiles (static eval)";
  let algorithms =
    [
      ("natural", fun freq -> Layout.Placement.natural (Freq.cfg freq));
      ("greedy", Layout.Algorithms.greedy);
      ("pettis-hansen", Layout.Algorithms.pettis_hansen);
      ("anneal", fun freq -> Layout.Algorithms.anneal freq);
    ]
  in
  ignore (pmap (fun w -> ignore (profile w)) Workloads.all);
  (* The exhaustive-optimal search dominates this table; fan it out one
     task per profiled procedure. *)
  let tasks =
    List.concat_map
      (fun w ->
        let run = profile w in
        List.map (fun (proc, freq) -> (w, proc, freq)) run.P.oracle_freqs)
      Workloads.all
  in
  let rows =
    List.concat
      (pmap
         (fun (w, proc, freq) ->
           let cfg = Freq.cfg freq in
           let optimal =
             if Cfg.num_blocks cfg <= 9 then
               Some (Layout.Eval.taken_transfers freq (Layout.Algorithms.optimal freq))
             else None
           in
           List.map
             (fun (name, algo) ->
               let score = Layout.Eval.taken_transfers freq (algo freq) in
               [
                 w.Workloads.name;
                 proc;
                 name;
                 f ~decimals:1 score;
                 (match optimal with
                 | Some o -> f ~decimals:1 o
                 | None -> "n/a (>9 blocks)");
               ])
             algorithms)
         tasks)
  in
  emit_table ~name:"a9"
    ~headers:[ "workload"; "procedure"; "algorithm"; "taken (static)"; "optimal" ]
    rows

(* ------------------------------------------------------------------ *)
(* A11: does the core's static prediction policy change the story?     *)
(* Under BTFN the fetch stage already wins on loop back-edges, so      *)
(* placement has less headroom — but the estimation pipeline is        *)
(* unchanged.                                                          *)
(* ------------------------------------------------------------------ *)

let a11 () =
  section "A11. Ablation: static branch prediction policy (dynamic, perfect profiles)";
  ignore (pmap (fun w -> ignore (profile w)) Workloads.all);
  let rows =
    List.concat (pmap
      (fun w ->
        let run = profile w in
        let placed =
          List.map
            (fun (proc, freq) -> (proc, Layout.Algorithms.pettis_hansen freq))
            run.P.oracle_freqs
        in
        List.map
          (fun (policy_name, prediction) ->
            let config = { (P.fresh_inputs run.P.config) with P.prediction } in
            let natural, opt =
              match
                P.evaluate_layouts config w ~natural:("nat", P.natural_binary run)
                  [ ("opt", placed) ]
              with
              | [ natural; opt ] -> (natural, opt)
              | _ -> assert false
            in
            let reduction =
              if natural.P.taken_transfers = 0 then 0.0
              else
                1.0
                -. (float_of_int opt.P.taken_transfers
                   /. float_of_int natural.P.taken_transfers)
            in
            [
              w.Workloads.name;
              policy_name;
              string_of_int natural.P.taken_transfers;
              string_of_int opt.P.taken_transfers;
              pct reduction;
              string_of_int (natural.P.busy_cycles - opt.P.busy_cycles);
            ])
          [
            ("not-taken", Mote_machine.Machine.Predict_not_taken);
            ("btfn", Mote_machine.Machine.Predict_btfn);
          ])
      Workloads.all)
  in
  emit_table ~name:"a11"
    ~headers:
      [
        "workload"; "policy"; "stalls (natural)"; "stalls (placed)"; "reduction";
        "cycles saved";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* S12: scalability on machine-generated programs.                     *)
(* ------------------------------------------------------------------ *)

let s12 () =
  section "S12. Scalability: estimator cost and accuracy vs generated program size";
  (* One task per generated program: generation, simulation and EM all
     derive from the row's own seed, so the fan-out is deterministic
     (the EM-ms column is wall-clock, since process CPU time would sum
     every domain's work, and varies run to run either way). *)
  let rows =
    pmap
      (fun (depth, stmts, seed) ->
        let config =
          { Workloads.Generator.default_config with seed; max_depth = depth; stmts_per_block = stmts }
        in
        let program = Workloads.Generator.generate ~config () in
        let c = Mote_lang.Compile.compile program in
        let instrumented =
          Mote_isa.Asm.assemble (Profilekit.Probes.instrument c.Mote_lang.Compile.items)
        in
        let devices = Mote_machine.Devices.create () in
        let env = Env.create (Workloads.Generator.env_config ~seed) in
        Env.attach env devices;
        let m = Mote_machine.Machine.create ~program:instrumented ~devices () in
        ignore (Mote_machine.Machine.run_proc m Mote_lang.Compile.init_proc_name);
        let oracle = Profilekit.Oracle.attach m in
        for _ = 1 to 2000 do
          ignore (Mote_machine.Machine.run_proc m "gen_task")
        done;
        let samples =
          Profilekit.Probes.(
            samples_for (collect ~program:instrumented ~devices)) "gen_task"
        in
        let cfg = Cfg.of_proc_name instrumented "gen_task" in
        let model = Tomo.Model.of_cfg cfg in
        let samples = if Array.length samples > 800 then Array.sub samples 0 800 else samples in
        let t0 = Unix.gettimeofday () in
        let result =
          match Tomo.Paths.enumerate ~max_paths:4000 ~max_visits:8 model with
          | paths ->
              let r = Tomo.Em.estimate ~max_iters:30 paths ~samples in
              let truth = Profilekit.Oracle.theta_vector oracle ~proc:"gen_task" in
              let mae =
                if Array.length truth = 0 then 0.0
                else Stats.Metrics.mae r.Tomo.Em.theta truth
              in
              Some (Array.length (Tomo.Paths.paths paths), mae)
          | exception Tomo.Paths.Too_complex _ -> None
        in
        let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        [
          Printf.sprintf "depth=%d stmts=%d seed=%d" depth stmts seed;
          string_of_int (Cfg.num_blocks cfg);
          string_of_int (Cfg.static_cond_branches cfg);
          (match result with Some (p, _) -> string_of_int p | None -> ">4000");
          (match result with Some (_, mae) -> f ~decimals:4 mae | None -> "n/a");
          f ~decimals:1 elapsed_ms;
        ])
      (* Chosen to span roughly 5 -> 100 blocks. *)
      [ (2, 2, 5); (2, 2, 3); (3, 2, 2); (4, 2, 1); (4, 3, 4); (4, 4, 2); (4, 4, 6) ]
  in
  emit_table ~name:"s12"
    ~headers:[ "generator config"; "blocks"; "branches"; "paths"; "MAE"; "EM ms" ]
    rows

(* ------------------------------------------------------------------ *)
(* F13: energy and projected battery life.  Placement saves active     *)
(* cycles; on a duty-cycled mote that converts into lifetime.          *)
(* ------------------------------------------------------------------ *)

let f13 () =
  warm_layout_variants ();
  section "F13. Energy per run and projected battery life (TelosB model, 1 MHz core)";
  let rows =
    List.concat_map
      (fun w ->
        let horizon = w.Workloads.horizon in
        let variants = layout_variants w in
        List.filter_map
          (fun v ->
            if v.P.label = "worst" then None
            else begin
              let energy =
                Mote_os.Energy.of_parts ~busy_cycles:v.P.busy_cycles
                  ~idle_cycles:(horizon - v.P.busy_cycles) ~tx_words:v.P.tx_words ()
              in
              let days =
                Mote_os.Energy.lifetime_days energy ~horizon_cycles:horizon
                  ~cycles_per_second:1_000_000
              in
              Some
                [
                  w.Workloads.name;
                  v.P.label;
                  f ~decimals:3 energy.Mote_os.Energy.active_mj;
                  f ~decimals:3 energy.Mote_os.Energy.radio_mj;
                  f ~decimals:3 energy.Mote_os.Energy.total_mj;
                  f ~decimals:0 days;
                ]
            end)
          variants)
      Workloads.all
  in
  emit_table ~name:"f13"
    ~headers:[ "workload"; "layout"; "cpu mJ"; "radio mJ"; "total mJ"; "lifetime (days)" ]
    rows

(* ------------------------------------------------------------------ *)
(* F14: robustness to probe-record loss (bounded buffers, lossy         *)
(* uplinks) with the resynchronizing collector.                         *)
(* ------------------------------------------------------------------ *)

let f14 () =
  section "F14. Estimation MAE vs probe-record loss rate (lossy collector, filter)";
  let w = Workloads.filter in
  let compiled = Codetomo.Session.compiled (sess ()) w in
  let inst =
    Mote_isa.Asm.assemble (Profilekit.Probes.instrument compiled.Mote_lang.Compile.items)
  in
  (* One simulation serves every loss rate: the probe log does not depend
     on the rate.  Each rate then loses records independently, one
     Bernoulli draw per record from its own seed-11 stream, in log order
     (no draws at rate 0), so the sweep fans out without reordering
     draws. *)
  let _, devices, oracle = P.simulate P.default_config w inst in
  let log = Mote_machine.Devices.probe_log devices in
  let truth = Profilekit.Oracle.theta_vector oracle ~proc:"filter_task" in
  let paths =
    Tomo.Paths.enumerate (Tomo.Model.of_cfg (Cfg.of_proc_name inst "filter_task"))
  in
  let rows =
    pmap
      (fun loss ->
        let rng = Stats.Rng.create 11 in
        let kept =
          if loss = 0.0 then log
          else List.filter (fun _ -> not (Stats.Rng.bernoulli rng loss)) log
        in
        let r =
          Profilekit.Probes.collect_lossy_records ~max_window:200 ~program:inst
            ~resolution:P.default_config.P.timer_resolution kept
        in
        let samples =
          Profilekit.Probes.samples_for r.Profilekit.Probes.samples "filter_task"
        in
        let est = Tomo.Em.estimate paths ~samples in
        [
          pct loss;
          string_of_int (List.length log - List.length kept);
          string_of_int (Array.length samples);
          string_of_int r.Profilekit.Probes.discarded;
          f ~decimals:4 (Stats.Metrics.mae est.Tomo.Em.theta truth);
        ])
      [ 0.0; 0.05; 0.1; 0.2; 0.3 ]
  in
  emit_table ~name:"f14"
    ~headers:[ "loss rate"; "records lost"; "windows kept"; "discarded"; "MAE" ]
    rows

(* ------------------------------------------------------------------ *)
(* R13: graceful degradation under transport faults.  F14 stresses the  *)
(* lossy collector alone; R13 stresses the whole pipeline — field-link  *)
(* faults on the probe stream, with and without the sanitation stack    *)
(* (envelope+MAD sanitizer, robust EM, sample floor) — and reads out    *)
(* both estimation error and the placement win that survives.           *)
(* ------------------------------------------------------------------ *)

(* CI's fault-smoke job runs a reduced 2x2x2 grid against a committed
   timings baseline. *)
let r13_losses () = grid ~full:[ 0.0; 0.05; 0.1; 0.2 ] ~small:[ 0.0; 0.1 ]
let r13_corrupts () = grid ~full:[ 0.0; 0.01; 0.05 ] ~small:[ 0.0; 0.01 ]

let r13 () =
  section
    "R13. Graceful degradation under probe-transport faults (filter)\n\
     (loss x corruption x sanitation; sanitized arm = envelope+MAD sanitizer,\n\
     robust EM with outlier mixture, sample floor with Rejected fallback)";
  let w = Workloads.filter in
  let grid =
    List.concat_map
      (fun loss ->
        List.concat_map
          (fun corrupt ->
            List.map (fun arm -> (loss, corrupt, arm)) [ false; true ])
          (r13_corrupts ()))
      (r13_losses ())
  in
  let rows =
    pmap
      (fun (loss, corrupt, sanitized) ->
        (* The zero-fault row keeps [faults = None]: it is the exact
           default pipeline (strict collector), so its numbers coincide
           with t4/f5 and anchor the degradation curves. *)
        let faults =
          if loss = 0.0 && corrupt = 0.0 then None
          else Some (Profilekit.Transport.field ~drop:loss ~corrupt ())
        in
        let config = { P.default_config with P.faults } in
        let opts =
          if sanitized then
            {
              P.default_opts with
              P.sanitize = true;
              robust = true;
              min_samples = Tomo.Health.default_min_samples;
            }
          else P.default_opts
        in
        let run = profile ~config w in
        let windows =
          List.fold_left (fun acc (_, s) -> acc + Array.length s) 0 run.P.samples
        in
        let ests = Codetomo.Session.estimate (sess ()) ~opts ~config w in
        let rejected =
          List.length (List.filter (fun e -> Tomo.Health.is_rejected e.P.health) ests)
        in
        let variants =
          Codetomo.Session.compare_layouts (sess ()) ~opts ~config w
        in
        let find label_prefix =
          List.find
            (fun v ->
              String.length v.P.label >= String.length label_prefix
              && String.sub v.P.label 0 (String.length label_prefix) = label_prefix)
            variants
        in
        let natural = find "natural" and tomo = find "tomography" in
        let reduction =
          float_of_int (natural.P.taken_transfers - tomo.P.taken_transfers)
          /. float_of_int (max 1 natural.P.taken_transfers)
        in
        [
          pct loss;
          pct corrupt;
          (if sanitized then "on" else "off");
          string_of_int windows;
          string_of_int run.P.discarded;
          string_of_int rejected;
          f ~decimals:4 (mean (List.map (fun e -> e.P.mae) ests));
          pct reduction;
        ])
      grid
  in
  emit_table ~name:"r13"
    ~headers:
      [
        "loss";
        "corrupt";
        "sanitize";
        "windows";
        "discarded";
        "rejected";
        "mean MAE";
        "taken reduction";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* A15: cost watermarking vs the identifiability limit.                 *)
(* ------------------------------------------------------------------ *)

let a15 () =
  section
    "A15. Cost watermarking: restoring identifiability for equal-cost arms\n\
     (profiling-build-only delay stubs on ambiguous taken edges)";
  ignore (pmap (fun w -> ignore (profile w)) Workloads.all);
  let rows =
    List.concat (pmap
      (fun w ->
        let run = profile w in
        let sites = P.ambiguous_sites run in
        let plain = Codetomo.Session.estimate (sess ()) w in
        let wm, _ = Codetomo.Session.estimate_watermarked (sess ()) w in
        List.map2
          (fun a b ->
            let n_sites =
              List.length (List.filter (fun (proc, _) -> proc = a.P.proc) sites)
            in
            [
              w.Workloads.name;
              a.P.proc;
              string_of_int n_sites;
              f ~decimals:4 a.P.mae;
              f ~decimals:4 b.P.mae;
            ])
          plain wm)
      Workloads.all)
  in
  emit_table ~name:"a15"
    ~headers:
      [ "workload"; "procedure"; "ambiguous branches"; "MAE plain"; "MAE watermarked" ]
    rows

(* ------------------------------------------------------------------ *)
(* F15: fleet scaling sweep.                                           *)
(* ------------------------------------------------------------------ *)

(* CI's fleet-smoke job runs a reduced grid against a committed timings
   baseline.  Grid points run serially — each Fleet.Service.run already
   fans its node work out over the session pool. *)
let f15_nodes () = grid ~full:[ 2; 4; 8 ] ~small:[ 2; 4 ]
let f15_rounds () = grid ~full:[ 4; 10 ] ~small:[ 4 ]
let f15_losses () = grid ~full:[ 0.0; 0.05; 0.1 ] ~small:[ 0.0; 0.1 ]

let f15 () =
  section
    "F15. Fleet scaling: nodes x rounds x loss (filter)\n\
     (N simulated nodes stream Wire batches over faulty uplinks; the base\n\
     station fuses health-gated per-node online estimates and places from\n\
     the fleet profile.  MAE columns: fused theta vs the pooled oracle at\n\
     mid-campaign and at the end — the convergence curve.)";
  let w = Workloads.filter in
  let rows =
    List.concat_map
      (fun nodes ->
        List.concat_map
          (fun rounds ->
            List.map
              (fun loss ->
                let faults =
                  if loss = 0.0 then Profilekit.Transport.default
                  else Profilekit.Transport.field ~drop:loss ()
                in
                let config =
                  {
                    (Fleet.Service.default_config w) with
                    Fleet.Service.nodes;
                    rounds;
                    faults;
                  }
                in
                let report = Fleet.Service.run ~session:(sess ()) config in
                let round r =
                  List.nth report.Fleet.Service.round_reports (r - 1)
                in
                let mid = round (max 1 (rounds / 2)) and last = round rounds in
                let final = report.Fleet.Service.final in
                [
                  string_of_int nodes;
                  string_of_int rounds;
                  pct loss;
                  string_of_int last.Fleet.Service.delivered;
                  string_of_int last.Fleet.Service.fed;
                  Printf.sprintf "%d/%d" last.Fleet.Service.admitted
                    last.Fleet.Service.rejected;
                  f ~decimals:4 mid.Fleet.Service.fused_mae;
                  f ~decimals:4 last.Fleet.Service.fused_mae;
                  pct final.Fleet.Service.reduction;
                ])
              (f15_losses ()))
          (f15_rounds ()))
      (f15_nodes ())
  in
  emit_table ~name:"f15"
    ~headers:
      [
        "nodes";
        "rounds";
        "loss";
        "delivered";
        "fed";
        "admit/rej";
        "MAE mid";
        "MAE final";
        "taken reduction";
      ]
    rows

let all () =
  t1 ();
  f2 ();
  f3 ();
  t4 ();
  f5 ();
  t6 ();
  f7 ();
  a8 ();
  a9 ();
  a11 ();
  s12 ();
  f13 ();
  f14 ();
  r13 ();
  a15 ();
  f15 ()
