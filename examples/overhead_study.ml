(* Why estimate from timing at all?  Because the alternative — counting
   every branch edge — costs real flash, RAM and cycles on a mote.  This
   example quantifies the trade on every bundled workload, and uses the
   profiling-duration planner and bootstrap confidence intervals to show
   what the cheap probes buy and what they give up.

   Run with:  dune exec examples/overhead_study.exe *)

module P = Codetomo.Pipeline
module Program = Mote_isa.Program

let () =
  (* 1. Static + dynamic overhead of the two instrumentation schemes. *)
  Printf.printf "%-9s %-7s %9s %8s %8s %10s\n" "workload" "scheme" "flash(w)" "+flash%"
    "ram(w)" "+cycles%";
  List.iter
    (fun w ->
      let c = Workloads.compiled w in
      let base = c.Mote_lang.Compile.program in
      let probes =
        Mote_isa.Asm.assemble (Profilekit.Probes.instrument c.Mote_lang.Compile.items)
      in
      let edges =
        Mote_isa.Asm.assemble (Profilekit.Edges.instrument c.Mote_lang.Compile.items)
      in
      let busy binary = (P.run_binary w binary ~label:"x").P.busy_cycles in
      let base_busy = busy base in
      let report name r binary =
        Printf.printf "%-9s %-7s %9d %7.1f%% %8d %9.1f%%\n" w.Workloads.name name
          r.Profilekit.Overhead.flash_words r.Profilekit.Overhead.flash_overhead_pct
          r.Profilekit.Overhead.ram_words
          (100.0 *. float_of_int (busy binary - base_busy) /. float_of_int base_busy)
      in
      report "probes" (Profilekit.Overhead.probes_report ~base ~instrumented:probes) probes;
      report "edges" (Profilekit.Overhead.edges_report ~base ~instrumented:edges) edges)
    Workloads.all;

  (* 2. What the probes give up: estimates carry uncertainty.  Quantify it
     with bootstrap confidence intervals and ask the planner how long to
     profile for a target precision. *)
  let w = Workloads.ctp in
  let run = P.profile w in
  let proc = "ctp_rx_task" in
  let samples = List.assoc proc run.P.samples in
  let model = P.model_of run proc in
  let paths = Tomo.Paths.enumerate model in
  let fit = Tomo.Em.estimate paths ~samples in
  let rng = Stats.Rng.create 7 in
  let ci =
    Tomo.Confidence.bootstrap rng paths ~samples ~point:fit.Tomo.Em.theta
      ~sigma:fit.Tomo.Em.sigma
  in
  Printf.printf "\n%s estimates with 90%% bootstrap intervals (%d samples):\n%s\n" proc
    (Array.length samples)
    (Format.asprintf "%a" Tomo.Confidence.pp ci);
  let plan = Tomo.Planner.plan rng paths ~samples ~target_se:0.01 in
  Printf.printf "planner: %s\n" (Format.asprintf "%a" Tomo.Planner.pp plan)
