(* B10: Bechamel micro-benchmarks for the moving parts of the pipeline:
   simulator speed, CFG extraction, path enumeration, the EM estimator,
   the placement pass and the streaming path (fleet ingest, Online). *)

open Bechamel
open Toolkit

let prepared_sense =
  lazy
    (let w = Workloads.sense in
     let c = Workloads.compiled w in
     let run =
       Codetomo.Pipeline.profile
         ~config:{ Codetomo.Pipeline.default_config with horizon = Some 1_000_000 }
         w
     in
     (w, c, run))

let test_simulator =
  Test.make ~name:"simulate 100 sense_task invocations"
    (Staged.stage (fun () ->
         let _, c, _ = Lazy.force prepared_sense in
         let devices = Mote_machine.Devices.create () in
         Mote_machine.Devices.set_sensor devices (fun _ -> 500);
         let m =
           Mote_machine.Machine.create ~program:c.Mote_lang.Compile.program ~devices ()
         in
         ignore (Mote_machine.Machine.run_proc m Mote_lang.Compile.init_proc_name);
         for _ = 1 to 100 do
           ignore (Mote_machine.Machine.run_proc m "sense_task")
         done))

let test_cfg =
  Test.make ~name:"CFG extraction (whole sense binary)"
    (Staged.stage (fun () ->
         let _, c, _ = Lazy.force prepared_sense in
         ignore (Cfgir.Cfg.of_program c.Mote_lang.Compile.program)))

let test_paths =
  Test.make ~name:"path enumeration (report_task)"
    (Staged.stage (fun () ->
         let _, _, run = Lazy.force prepared_sense in
         let model = Codetomo.Pipeline.model_of run "report_task" in
         ignore (Tomo.Paths.enumerate model)))

let test_em =
  Test.make ~name:"EM estimate (sense_task, 1000 samples)"
    (Staged.stage (fun () ->
         let _, _, run = Lazy.force prepared_sense in
         let samples = List.assoc "sense_task" run.Codetomo.Pipeline.samples in
         let samples =
           if Array.length samples > 1000 then Array.sub samples 0 1000 else samples
         in
         let paths = Codetomo.Pipeline.path_set run.instrumented "sense_task" in
         ignore (Tomo.Em.estimate paths ~samples)))

(* The sparse-kernel benches run on ctp_rx_task — the grid's dominant cell
   (4096 raw paths merging to a couple hundred signatures). *)
let prepared_ctp =
  lazy
    (let w = Workloads.ctp in
     let run =
       Codetomo.Pipeline.profile
         ~config:{ Codetomo.Pipeline.default_config with timer_jitter = 4.0 }
         w
     in
     let samples = List.assoc "ctp_rx_task" run.Codetomo.Pipeline.samples in
     let paths = Codetomo.Pipeline.path_set run.instrumented "ctp_rx_task" in
     (Tomo.Paths.model paths, paths, samples))

let test_paths_merge =
  Test.make ~name:"path enumeration + merge (ctp_rx_task)"
    (Staged.stage (fun () ->
         let model, _, _ = Lazy.force prepared_ctp in
         ignore (Tomo.Paths.enumerate model)))

let test_em_sparse =
  Test.make ~name:"EM estimate, 3 iters (ctp_rx_task, jitter 4)"
    (Staged.stage (fun () ->
         let _, paths, samples = Lazy.force prepared_ctp in
         ignore
           (Tomo.Em.estimate ~max_iters:3 ~sigma:4.0 ~record_trajectory:false paths
              ~samples)))

let test_log_prior =
  Test.make ~name:"signature log-prior kernel (ctp_rx_task)"
    (Staged.stage (fun () ->
         let _, paths, _ = Lazy.force prepared_ctp in
         let model = Tomo.Paths.model paths in
         let theta = Array.map (fun _ -> 0.3) (Tomo.Model.uniform_theta model) in
         let log_t = Array.map log theta in
         let log_f = Array.map (fun t -> log (1.0 -. t)) theta in
         let out = Array.make (Tomo.Paths.num_signatures paths) 0.0 in
         Tomo.Paths.signature_log_prior paths ~log_t ~log_f out))

(* Fleet ingest: every node's uplink batches of a field-faulted filter
   fleet, pre-encoded, ingested by fresh per-node state — decode, collector
   and Online together, as the base station runs them. *)
let ingest_rounds = 100

let prepared_ingest =
  lazy
    (let w = Workloads.filter in
     let config = Codetomo.Pipeline.default_config in
     let c = Workloads.compiled w in
     let instrumented =
       Mote_isa.Asm.assemble (Profilekit.Probes.instrument c.Mote_lang.Compile.items)
     in
     let procs =
       List.map
         (fun proc -> (proc, Codetomo.Pipeline.path_set instrumented proc))
         w.Workloads.profiled
     in
     let roster =
       Fleet.Sim.plan ~seed:42 ~nodes:8 ~faults:(Profilekit.Transport.field ())
         ~vary_faults:true
     in
     let nodes =
       List.map
         (fun node ->
           let nr = Fleet.Sim.run_node ~workload:w ~instrumented ~config node in
           let batch = Fleet.Sim.default_batch nr ~rounds:ingest_rounds in
           ( node,
             List.init ingest_rounds (fun round -> fst (Fleet.Sim.batch nr ~batch ~round)) ))
         roster
     in
     let records =
       List.fold_left
         (fun acc (_, batches) ->
           List.fold_left
             (fun acc b -> acc + List.length (Profilekit.Wire.decode_exn b))
             acc batches)
         0 nodes
     in
     (instrumented, config, procs, nodes, records))

let ingest_name = "ingest records/s (filter, field, 8 nodes)"

let test_ingest =
  Test.make ~name:ingest_name
    (Staged.stage (fun () ->
         let instrumented, config, procs, nodes, _ = Lazy.force prepared_ingest in
         List.iter
           (fun (node, batches) ->
             let ing =
               Fleet.Ingest.create ~node ~program:instrumented
                 ~resolution:config.Codetomo.Pipeline.timer_resolution
                 ~sigma:(Codetomo.Pipeline.noise_sigma config) ~decay:0.999 ~procs
             in
             List.iter (Fleet.Ingest.ingest ing) batches)
           nodes))

(* One Online observation over ctp_rx_task's 4096 raw paths (176
   signatures), cycling through the jittered samples. *)
let test_online =
  let state = ref None in
  Test.make ~name:"Online observe (ctp_rx_task)"
    (Staged.stage (fun () ->
         let _, paths, samples = Lazy.force prepared_ctp in
         let online, next =
           match !state with
           | Some s -> s
           | None ->
               let s = (Tomo.Online.create ~sigma:4.0 paths, ref 0) in
               state := Some s;
               s
         in
         Tomo.Online.observe online samples.(!next mod Array.length samples);
         incr next))

let test_placement =
  Test.make ~name:"Pettis-Hansen + rewrite (sense)"
    (Staged.stage (fun () ->
         let _, c, run = Lazy.force prepared_sense in
         ignore
           (Layout.Rewrite.apply_all c.Mote_lang.Compile.program
              ~algorithm:Layout.Algorithms.pettis_hansen
              ~profiles:run.Codetomo.Pipeline.oracle_freqs)))

(* The evaluation path of one place_fresh job on filter, the slowest
   workload to evaluate: one full-horizon evaluation run of the natural
   binary, and filter_task's exhaustive pessimal layout (8! candidates). *)
let prepared_filter = lazy (Codetomo.Pipeline.profile Workloads.filter)

let test_run_binary =
  Test.make ~name:"evaluate natural binary (filter, run_binary)"
    (Staged.stage (fun () ->
         let run = Lazy.force prepared_filter in
         ignore
           (Codetomo.Pipeline.run_binary Workloads.filter
              (Codetomo.Pipeline.natural_binary run) ~label:"natural")))

let test_pessimal =
  Test.make ~name:"pessimal layout (filter_task)"
    (Staged.stage (fun () ->
         let run = Lazy.force prepared_filter in
         ignore
           (Layout.Algorithms.pessimal
              (List.assoc "filter_task" run.Codetomo.Pipeline.oracle_freqs))))

(* One compare_layouts on the filter profile with a warm path-set memo (a
   one-domain session's, so nothing fans out): EM from the cached path
   sets, the four placements (filter_task's exhaustive pessimal one
   included), and the evaluation — one run of the natural binary, which
   scores the other layouts too. *)
let test_compare_layouts =
  let ctx = Codetomo.Session.(ctx (create ~domains:1 ()) Workloads.filter) in
  Test.make ~name:"compare_layouts (filter, warm path cache)"
    (Staged.stage (fun () ->
         ignore (Codetomo.Pipeline.compare_layouts ~ctx (Lazy.force prepared_filter))))

let benchmark () =
  ignore (Lazy.force prepared_sense);
  ignore (Lazy.force prepared_ctp);
  ignore (Lazy.force prepared_ingest);
  ignore (Lazy.force prepared_filter);
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 100) () in
  let grouped =
    Test.make_grouped ~name:"codetomo"
      [
        test_simulator; test_cfg; test_paths; test_em; test_paths_merge;
        test_em_sparse; test_log_prior; test_placement; test_ingest; test_online;
        test_run_binary; test_pessimal; test_compare_layouts;
      ]
  in
  let results = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Instance.monotonic_clock results
  in
  let lines = Hashtbl.fold (fun name result acc -> (name, result) :: acc) ols [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] when String.ends_with ~suffix:ingest_name name ->
          let _, _, _, _, records = Lazy.force prepared_ingest in
          Printf.printf "  %-55s %12.0f ns/run  (%.0f records/s)\n%!" name est
            (float_of_int records /. (est *. 1e-9))
      | Some [ est ] -> Printf.printf "  %-55s %12.0f ns/run\n%!" name est
      | _ -> Printf.printf "  %-55s (no estimate)\n%!" name)
    (List.sort compare lines)

let b10 () =
  Experiments.section "B10. Micro-benchmarks (Bechamel, monotonic clock)";
  benchmark ()
