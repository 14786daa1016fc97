(* Nonstationary inputs: when the phenomenon drifts, so do the branch
   probabilities, and a placement optimized for last week's profile goes
   stale.  Because Code Tomography's probes are cheap enough to leave in
   the deployed binary, the node can keep estimating: this example feeds
   the timing stream through windowed EM, watches theta move as the
   environment transitions from quiet to active, and shows the drift
   detector firing — the signal to regenerate the placement.

   Run with:  dune exec examples/drifting_phenomenon.exe *)

module P = Codetomo.Pipeline
module Machine = Mote_machine.Machine
module Devices = Mote_machine.Devices

(* A two-phase environment: the first half of the run is quiet, then the
   phenomenon wakes up — e.g. a road sensor at rush hour. *)
let make_sensor () =
  let rng = Stats.Rng.create 99 in
  let reads = ref 0 in
  fun _channel ->
    incr reads;
    let mu = if !reads < 2500 then 450.0 else 840.0 in
    let v = Stats.Dist.gaussian rng ~mu ~sigma:70.0 in
    Stdlib.max 0 (Stdlib.min 1023 (int_of_float v))

let () =
  let workload = Workloads.sense in
  let compiled = Workloads.compiled workload in
  let instrumented =
    Mote_isa.Asm.assemble
      (Profilekit.Probes.instrument compiled.Mote_lang.Compile.items)
  in
  let devices = Devices.create () in
  Devices.set_sensor devices (make_sensor ());
  let machine = Machine.create ~program:instrumented ~devices () in
  ignore (Machine.run_proc machine Mote_lang.Compile.init_proc_name);
  (* Drive sense_task directly: 5000 invocations spanning the phase
     change. *)
  for _ = 1 to 5000 do
    ignore (Machine.run_proc machine "sense_task")
  done;
  let samples =
    Profilekit.Probes.(samples_for (collect ~program:instrumented ~devices)) "sense_task"
  in
  Printf.printf "collected %d timing samples across the phase change\n\n"
    (Array.length samples);
  let model = Tomo.Model.of_cfg (Cfgir.Cfg.of_proc_name instrumented "sense_task") in
  let paths = Tomo.Paths.enumerate model in
  let windowed = Tomo.Windowed.estimate ~window_size:500 paths ~samples in
  Printf.printf "%-8s %-14s %-22s %s\n" "window" "samples from" "theta (P quiet-branch)" "drift";
  List.iter
    (fun w ->
      Printf.printf "%-8d %-14d %-22s %.3f%s\n" w.Tomo.Windowed.index
        w.Tomo.Windowed.first_sample
        (String.concat ","
           (Array.to_list (Array.map (Printf.sprintf "%.3f") w.Tomo.Windowed.theta)))
        w.Tomo.Windowed.drift
        (if w.Tomo.Windowed.drift > 0.15 then "   <-- drift detected" else ""))
    windowed.Tomo.Windowed.windows;
  Printf.printf "\nmax drift %.3f; placement stale: %b\n" windowed.Tomo.Windowed.max_drift
    (Tomo.Windowed.drifted windowed);
  (* What re-placement buys: compare placements derived from the early
     profile vs the late profile, both statically evaluated on the late
     distribution. *)
  let theta_of window = window.Tomo.Windowed.theta in
  let windows = Array.of_list windowed.Tomo.Windowed.windows in
  let early = theta_of windows.(0) and late = theta_of windows.(Array.length windows - 1) in
  let freq theta =
    P.freq_of_theta compiled.Mote_lang.Compile.program ~proc:"sense_task" ~theta
      ~invocations:1000.0
  in
  let freq_late = freq late and freq_early = freq early in
  let score placement = Layout.Eval.taken_transfers freq_late placement in
  let stale = Layout.Algorithms.pettis_hansen freq_early in
  let fresh = Layout.Algorithms.pettis_hansen freq_late in
  Printf.printf
    "\nunder the late distribution (per 1000 invocations):\n\
    \  placement from early profile: %.0f taken transfers\n\
    \  placement from late profile:  %.0f taken transfers\n"
    (score stale) (score fresh)
