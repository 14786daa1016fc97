(* Fleet: the multi-node streaming-estimation service.

   The load-bearing claim is incrementality: because the lossy collector
   is sequential, feeding a node's record stream batch-by-batch leaves
   the online estimator in bit-for-bit the state it reaches on the
   concatenated stream.  Everything else — health-gated fusion, decay
   under drift, -j invariance, and the fleet-vs-single-node anchor — is
   asserted on top of that. *)

module P = Codetomo.Pipeline
module Session = Codetomo.Session
module Compile = Mote_lang.Compile
module Asm = Mote_isa.Asm
module Cfg = Cfgir.Cfg
module Probes = Profilekit.Probes
module Transport = Profilekit.Transport
module Wire = Profilekit.Wire

let exact = Alcotest.(array (float 0.0))

(* A small campaign: the filter workload at a reduced horizon, so each
   node still closes a few hundred probe windows. *)
let short_config = { P.default_config with P.horizon = Some 400_000 }

let setup =
  lazy
    (let w = Workloads.find "filter" in
     let compiled = Workloads.compiled w in
     let instrumented = Asm.assemble (Probes.instrument compiled.Compile.items) in
     let proc = List.hd w.Workloads.profiled in
     let paths =
       Tomo.Paths.enumerate (Tomo.Model.of_cfg (Cfg.of_proc_name instrumented proc))
     in
     (w, instrumented, proc, paths))

let make_ingest ?(decay = 0.999) node =
  let _, instrumented, proc, paths = Lazy.force setup in
  Fleet.Ingest.create ~node ~program:instrumented
    ~resolution:short_config.P.timer_resolution
    ~sigma:(P.noise_sigma short_config) ~decay ~procs:[ (proc, paths) ]

let node_runs ~faults ~nodes =
  let w, instrumented, _, _ = Lazy.force setup in
  let roster = Fleet.Sim.plan ~seed:7 ~nodes ~faults ~vary_faults:true in
  List.map (Fleet.Sim.run_node ~workload:w ~instrumented ~config:short_config) roster

(* A clean-link node is a profiling run under the node's seed: Sim.run_node
   and Pipeline.profile share the simulate stage, so the node's pristine
   log pairs up into exactly the profiling run's samples, and the clean
   counts and oracle θ agree bit for bit.  The config's own seed is not
   the node's, to show run_node ignores it. *)
let node_run_equals_profile () =
  let hex a = Array.to_list (Array.map (Printf.sprintf "%h") a) in
  let env_seed = 1234 in
  List.iter
    (fun name ->
      let w = Workloads.find name in
      let run = P.profile ~config:{ P.default_config with P.seed = env_seed } w in
      let node =
        { Fleet.Sim.id = 0; env_seed; transport_seed = 0; faults = Transport.default }
      in
      let nr =
        Fleet.Sim.run_node ~workload:w ~instrumented:run.P.instrumented
          ~config:P.default_config node
      in
      let collected =
        Probes.collect_lossy_records ~program:run.P.instrumented
          ~resolution:P.default_config.P.timer_resolution
          (Array.to_list nr.Fleet.Sim.log)
      in
      Alcotest.(check int) (name ^ ": clean log discards nothing") 0
        collected.Probes.discarded;
      List.iter
        (fun proc ->
          let label what = Printf.sprintf "%s %s: %s" name proc what in
          let samples = List.assoc proc run.P.samples in
          Alcotest.(check (list string)) (label "samples")
            (hex samples)
            (hex (Probes.samples_for collected.Probes.samples proc));
          Alcotest.(check int) (label "clean count") (Array.length samples)
            (List.assoc proc nr.Fleet.Sim.clean_samples);
          Alcotest.(check (list string)) (label "oracle theta")
            (hex (List.assoc proc run.P.oracle_thetas))
            (hex (List.assoc proc nr.Fleet.Sim.oracle_thetas)))
        w.Workloads.profiled)
    [ "filter"; "ctp" ]

(* Batch-by-batch ingest must equal one-shot ingest of the concatenated
   stream — exactly, not approximately. *)
let incremental_equals_concatenated () =
  let _, _, proc, _ = Lazy.force setup in
  let rounds = 5 in
  List.iter
    (fun (nr : Fleet.Sim.node_run) ->
      let batch = Fleet.Sim.default_batch nr ~rounds in
      let batches =
        List.init rounds (fun round -> fst (Fleet.Sim.batch nr ~batch ~round))
      in
      let incremental = make_ingest nr.Fleet.Sim.node in
      List.iter (Fleet.Ingest.ingest incremental) batches;
      let one_shot = make_ingest nr.Fleet.Sim.node in
      Fleet.Ingest.ingest one_shot
        (Wire.encode (List.concat_map Wire.decode_exn batches));
      Alcotest.(check int)
        "fed" (Fleet.Ingest.fed one_shot proc)
        (Fleet.Ingest.fed incremental proc);
      Alcotest.(check int)
        "discarded" (Fleet.Ingest.discarded one_shot)
        (Fleet.Ingest.discarded incremental);
      Alcotest.check exact "theta"
        (Fleet.Ingest.theta one_shot proc)
        (Fleet.Ingest.theta incremental proc);
      Alcotest.(check (float 0.0))
        "weight"
        (Fleet.Ingest.weight one_shot proc)
        (Fleet.Ingest.weight incremental proc);
      Alcotest.check exact "samples"
        (Fleet.Ingest.samples one_shot proc)
        (Fleet.Ingest.samples incremental proc))
    (node_runs ~faults:(Transport.field ()) ~nodes:2)

(* Through the same ingest path, the online estimate must land near the
   offline EM on the very samples it was fed. *)
let online_matches_batch_em () =
  let _, _, proc, paths = Lazy.force setup in
  let nr = List.hd (node_runs ~faults:Transport.default ~nodes:1) in
  let ing = make_ingest nr.Fleet.Sim.node in
  let rounds = 4 in
  let batch = Fleet.Sim.default_batch nr ~rounds in
  for round = 0 to rounds - 1 do
    Fleet.Ingest.ingest ing (fst (Fleet.Sim.batch nr ~batch ~round))
  done;
  let samples = Fleet.Ingest.samples ing proc in
  Alcotest.(check bool) "enough samples" true (Array.length samples > 100);
  let em =
    Tomo.Em.estimate ~sigma:(P.noise_sigma short_config) paths ~samples
  in
  let mae = Stats.Metrics.mae (Fleet.Ingest.theta ing proc) em.Tomo.Em.theta in
  if mae > 0.05 then
    Alcotest.failf "online diverged from batch EM: MAE %.4f" mae

(* With decay, old evidence fades: after a theta flip, the estimate must
   track the new regime, not the (larger) stale prefix. *)
let decay_forgets_drift () =
  let _, _, _, paths = Lazy.force setup in
  let sigma = P.noise_sigma short_config in
  let k = Tomo.Model.num_params (Tomo.Paths.model paths) in
  let before = Array.make k 0.9 and after = Array.make k 0.1 in
  let rng = Stats.Rng.create 11 in
  let online = Tomo.Online.create ~decay:0.99 ~sigma paths in
  Array.iter (Tomo.Online.observe online)
    (Tomo.Paths.sample_costs rng paths ~theta:before ~n:600);
  Array.iter (Tomo.Online.observe online)
    (Tomo.Paths.sample_costs rng paths ~theta:after ~n:600);
  let theta = Tomo.Online.theta online in
  let d_after = Stats.Metrics.mae theta after
  and d_before = Stats.Metrics.mae theta before in
  if d_after >= d_before then
    Alcotest.failf "estimate still remembers the old regime: %.3f vs %.3f"
      d_after d_before;
  if d_after > 0.25 then
    Alcotest.failf "estimate did not converge to the new regime: MAE %.3f" d_after

(* A node whose link delivered nothing is Rejected by the sample floor
   and must not move the fused estimate at all. *)
let rejected_node_excluded () =
  let _, _, proc, _ = Lazy.force setup in
  match node_runs ~faults:Transport.default ~nodes:2 with
  | [ nr0; nr1 ] ->
      let fed = make_ingest nr0.Fleet.Sim.node in
      Fleet.Ingest.ingest fed
        (fst
           (Fleet.Sim.batch nr0 ~batch:(Array.length nr0.Fleet.Sim.log) ~round:0));
      let starved = make_ingest nr1.Fleet.Sim.node in
      let min_samples = Tomo.Health.default_min_samples in
      let input_of ing = Fleet.Ingest.fusion_input ing ~min_samples proc in
      Alcotest.(check bool)
        "starved node is rejected" true
        (Tomo.Health.is_rejected (input_of starved).Fleet.Fusion.health);
      let r = Fleet.Fusion.fuse [ input_of fed; input_of starved ] in
      Alcotest.(check int) "admitted" 1 r.Fleet.Fusion.admitted;
      Alcotest.(check int) "rejected" 1 r.Fleet.Fusion.rejected;
      (match r.Fleet.Fusion.fused with
      | None -> Alcotest.fail "no fused estimate despite a healthy node"
      | Some fused ->
          (* (w·θ)/w costs one rounding, hence not `exact` *)
          Alcotest.(check (array (float 1e-12)))
            "fused = healthy node's theta"
            (Fleet.Ingest.theta fed proc) fused);
      (* Nothing admissible at all: placement must get None, not 0.5s. *)
      let empty = Fleet.Fusion.fuse [ input_of starved ] in
      Alcotest.(check bool) "all-rejected fuses to None" true
        (empty.Fleet.Fusion.fused = None)
  | _ -> assert false

let fusion_arity_mismatch () =
  let input theta =
    { Fleet.Fusion.theta; weight = 1.0; health = Tomo.Health.Healthy }
  in
  match Fleet.Fusion.fuse [ input [| 0.5 |]; input [| 0.5; 0.5 |] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched theta arities fused"

(* The acceptance bar: an 8-node fleet on field-grade links must land
   within 5% of the single-node clean-link reduction, and the whole
   report must be identical at -j 1 and -j 4. *)
let fleet_anchor_and_determinism () =
  let w = Workloads.find "filter" in
  let config =
    {
      (Fleet.Service.default_config w) with
      Fleet.Service.faults = Transport.field ();
    }
  in
  let s1 = Session.create ~domains:1 () in
  let r1 = Fleet.Service.run ~session:s1 config in
  let s4 = Session.create ~domains:4 () in
  let r4 = Fleet.Service.run ~session:s4 config in
  Alcotest.(check int)
    "natural taken (-j)" r1.Fleet.Service.final.Fleet.Service.natural_taken
    r4.Fleet.Service.final.Fleet.Service.natural_taken;
  Alcotest.(check int)
    "placed taken (-j)" r1.Fleet.Service.final.Fleet.Service.placed_taken
    r4.Fleet.Service.final.Fleet.Service.placed_taken;
  List.iter2
    (fun (a : Fleet.Service.round_report) (b : Fleet.Service.round_report) ->
      Alcotest.(check int) "round delivered (-j)" a.Fleet.Service.delivered
        b.Fleet.Service.delivered;
      Alcotest.(check (float 0.0))
        "round MAE (-j)" a.Fleet.Service.fused_mae b.Fleet.Service.fused_mae)
    r1.Fleet.Service.round_reports r4.Fleet.Service.round_reports;
  List.iter2
    (fun (pa, ta) (pb, tb) ->
      Alcotest.(check string) "proc (-j)" pa pb;
      match (ta, tb) with
      | Some ta, Some tb -> Alcotest.check exact "fused theta (-j)" ta tb
      | None, None -> ()
      | _ -> Alcotest.fail "fused presence differs across -j")
    r1.Fleet.Service.fused r4.Fleet.Service.fused;
  (* Single-node clean-link anchor, via the public pipeline API. *)
  let run = P.profile ~config:P.default_config w in
  let variants = P.compare_layouts ~ctx:(Session.ctx s1 w) run in
  let anchor =
    match variants with
    | [ natural; _worst; tomo; _perfect ] ->
        1.0
        -. (float_of_int tomo.P.taken_transfers /. float_of_int natural.P.taken_transfers)
    | _ -> Alcotest.fail "compare_layouts: expected four variants"
  in
  let fleet = r1.Fleet.Service.final.Fleet.Service.reduction in
  Alcotest.(check bool) "fleet actually reduces" true (fleet > 0.2);
  if Float.abs (fleet -. anchor) > 0.05 then
    Alcotest.failf "fleet reduction %.3f vs single-node anchor %.3f" fleet anchor

(* Ingest's discard count is a count of abandoned frames: it never drops
   from one round to the next, frames merely open at a batch tail are
   reported apart, and at the end the two add up to the one-shot
   collector's total over the concatenated stream. *)
let discarded_is_cumulative () =
  let _, instrumented, _, _ = Lazy.force setup in
  let rounds = 40 in
  let tails_open = ref 0 in
  List.iter
    (fun (nr : Fleet.Sim.node_run) ->
      let batch = Fleet.Sim.default_batch nr ~rounds in
      let batches = List.init rounds (fun round -> fst (Fleet.Sim.batch nr ~batch ~round)) in
      let ing = make_ingest nr.Fleet.Sim.node in
      ignore
        (List.fold_left
           (fun prev b ->
             Fleet.Ingest.ingest ing b;
             let d = Fleet.Ingest.discarded ing in
             if d < prev then Alcotest.failf "discarded fell from %d to %d" prev d;
             if Fleet.Ingest.open_frames ing > 0 then incr tails_open;
             d)
           0 batches);
      let one_shot =
        Probes.collect_lossy_records ~program:instrumented
          ~resolution:short_config.P.timer_resolution
          (List.concat_map Wire.decode_exn batches)
      in
      Alcotest.(check int) "discarded + open = one-shot discarded"
        one_shot.Probes.discarded
        (Fleet.Ingest.discarded ing + Fleet.Ingest.open_frames ing))
    (node_runs ~faults:(Transport.field ()) ~nodes:2);
  Alcotest.(check bool) "some batch ended inside a window" true (!tails_open > 0);
  let w = Workloads.find "filter" in
  let r =
    Fleet.Service.run
      {
        (Fleet.Service.default_config w) with
        Fleet.Service.nodes = 2;
        rounds;
        faults = Transport.field ();
      }
  in
  ignore
    (List.fold_left
       (fun prev (rr : Fleet.Service.round_report) ->
         if rr.Fleet.Service.discarded < prev then
           Alcotest.failf "round %d: fleet discarded fell from %d to %d"
             rr.Fleet.Service.round prev rr.Fleet.Service.discarded;
         rr.Fleet.Service.discarded)
       0 r.Fleet.Service.round_reports)

(* Every placement a campaign reports is the fleet-wide sum of two full
   runs per node on that node's evaluation inputs: one of the natural
   binary and one of Rewrite.apply_all of the fused profile.  With a fixed
   batch, a campaign cut short at round r has ingested exactly what the
   longer campaign had at r, so its final fused theta rebuilds the
   placement made at r.  Under BTFN every layout runs in full. *)
let placements_equal_full_runs () =
  let w = Workloads.find "filter" in
  let original = (Workloads.compiled w).Compile.program in
  let check name (config : Fleet.Service.config) ~placed_at =
    let report = Fleet.Service.run config in
    let fleet_taken binary =
      List.fold_left
        (fun acc (node : Fleet.Sim.node) ->
          let eval_config =
            P.fresh_inputs { config.Fleet.Service.pipeline with P.seed = node.Fleet.Sim.env_seed }
          in
          acc + (P.run_binary ~config:eval_config w binary ~label:"").P.taken_transfers)
        0 report.Fleet.Service.roster
    in
    let natural_taken = fleet_taken original in
    let placements =
      List.filter_map (fun (rr : Fleet.Service.round_report) -> rr.Fleet.Service.placement)
        report.Fleet.Service.round_reports
    in
    Alcotest.(check (list int)) (name ^ ": placement rounds") placed_at
      (List.map (fun (p : Fleet.Service.placement) -> p.Fleet.Service.at_round) placements);
    List.iter
      (fun (p : Fleet.Service.placement) ->
        let r = p.Fleet.Service.at_round in
        let label what = Printf.sprintf "%s round %d: %s" name r what in
        let cut =
          Fleet.Service.run
            { config with Fleet.Service.rounds = r; replace_every = 0 }
        in
        Alcotest.(check bool) (label "cut campaign places alike") true
          (cut.Fleet.Service.final = p);
        (* filter profiles one procedure, so the fleet's fed count is its
           invocation count. *)
        let invocations =
          float_of_int (List.nth cut.Fleet.Service.round_reports (r - 1)).Fleet.Service.fed
        in
        let profiles =
          List.filter_map
            (fun (proc, theta) ->
              Option.map
                (fun theta -> (proc, P.freq_of_theta original ~proc ~theta ~invocations))
                theta)
            cut.Fleet.Service.fused
        in
        let placed =
          Layout.Rewrite.apply_all original ~algorithm:Layout.Algorithms.pettis_hansen
            ~profiles
        in
        Alcotest.(check bool) (label "placement reduces") true
          (p.Fleet.Service.placed_taken < natural_taken);
        Alcotest.(check int) (label "natural taken") natural_taken p.Fleet.Service.natural_taken;
        Alcotest.(check int) (label "placed taken") (fleet_taken placed)
          p.Fleet.Service.placed_taken)
      placements
  in
  let config =
    {
      (Fleet.Service.default_config w) with
      Fleet.Service.nodes = 4;
      rounds = 6;
      batch = Some 150;
      faults = Transport.field ();
      pipeline = short_config;
      replace_every = 2;
    }
  in
  check "not-taken" config ~placed_at:[ 2; 4; 6 ];
  check "btfn"
    {
      config with
      Fleet.Service.rounds = 4;
      pipeline = { short_config with P.prediction = Mote_machine.Machine.Predict_btfn };
    }
    ~placed_at:[ 2; 4 ]

(* The fleet reads its path sets through Pipeline.path_set with the
   session's context, so after a campaign the session holds every
   profiled procedure's set: the pipeline's estimates find it there
   instead of enumerating again. *)
let fleet_shares_path_sets () =
  let w = Workloads.ctp in
  let s = Session.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () ->
      ignore
        (Fleet.Service.run ~session:s
           {
             (Fleet.Service.default_config w) with
             Fleet.Service.nodes = 2;
             rounds = 2;
             pipeline = { P.default_config with P.horizon = Some 200_000 };
           });
      let instrumented =
        Asm.assemble (Probes.instrument (Session.compiled s w).Compile.items)
      in
      List.iter
        (fun proc ->
          let cached = Session.paths_cache s w proc (fun () -> failwith "re-enumerated") in
          Alcotest.(check bool) (proc ^ ": the pipeline reads the fleet's set") true
            (P.path_set ~ctx:(Session.ctx s w) instrumented proc == cached))
        w.Workloads.profiled)

let suite =
  [
    Alcotest.test_case "node run = Pipeline.profile" `Quick node_run_equals_profile;
    Alcotest.test_case "incremental = concatenated" `Quick incremental_equals_concatenated;
    Alcotest.test_case "online matches batch EM" `Quick online_matches_batch_em;
    Alcotest.test_case "decay forgets drift" `Quick decay_forgets_drift;
    Alcotest.test_case "rejected node excluded" `Quick rejected_node_excluded;
    Alcotest.test_case "fusion arity mismatch" `Quick fusion_arity_mismatch;
    Alcotest.test_case "anchor + -j determinism" `Slow fleet_anchor_and_determinism;
    Alcotest.test_case "discarded is cumulative" `Quick discarded_is_cumulative;
    Alcotest.test_case "placements = full runs" `Quick placements_equal_full_runs;
    Alcotest.test_case "fleet shares path sets" `Quick fleet_shares_path_sets;
  ]
