(* Why estimate from timing at all?  Because the alternative — counting
   every branch edge — costs real flash, RAM and cycles on a mote.  This
   example quantifies the trade on every bundled workload, and uses the
   profiling-duration planner and bootstrap confidence intervals to show
   what the cheap probes buy and what they give up.

   Run with:  dune exec examples/overhead_study.exe *)

module P = Codetomo.Pipeline

let () =
  (* 1. Static + dynamic overhead of the two instrumentation schemes. *)
  Printf.printf "%-9s %-7s %9s %8s %8s %10s\n" "workload" "scheme" "flash(w)" "+flash%"
    "ram(w)" "+cycles%";
  List.iter
    (fun w ->
      List.iter
        (fun ((v : P.variant), (r : Profilekit.Overhead.report), busy_pct) ->
          if v.P.label <> "none" then
            Printf.printf "%-9s %-7s %9d %7.1f%% %8d %10s\n" w.Workloads.name v.P.label
              r.Profilekit.Overhead.flash_words r.Profilekit.Overhead.flash_overhead_pct
              r.Profilekit.Overhead.ram_words
              (match busy_pct with Some p -> Printf.sprintf "%.1f%%" p | None -> "n/a"))
        (P.overhead w))
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
