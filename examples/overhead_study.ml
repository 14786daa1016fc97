(* Why estimate from timing at all?  Because the alternative — counting
   every branch edge — costs real flash, RAM and cycles on a mote.  This
   example quantifies the trade on every bundled workload, and uses
   observed-information confidence intervals and the sample count they
   extrapolate to show what the cheap probes buy and what they give up.

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
     with observed-information confidence intervals and extrapolate how
     long to profile for a target precision. *)
  let w = Workloads.ctp in
  let run = P.profile w in
  let proc = "ctp_rx_task" in
  let samples = List.assoc proc run.P.samples in
  let paths = P.path_set run.P.instrumented proc in
  let fit = Tomo.Em.estimate paths ~samples in
  let ci =
    Tomo.Confidence.information paths ~samples ~point:fit.Tomo.Em.theta
      ~sigma:fit.Tomo.Em.sigma
  in
  Printf.printf "\n%s estimates with 90%% observed-information intervals (%d samples):\n%s\n"
    proc (Array.length samples)
    (Format.asprintf "%a" Tomo.Confidence.pp ci);
  let target_se = 0.01 in
  Printf.printf "largest se %.4f; samples for se %.2f: %s\n"
    (Array.fold_left Float.max 0.0 ci.Tomo.Confidence.se)
    target_se
    (match Tomo.Confidence.samples_needed ci ~target_se with
    | Some n -> string_of_int n
    | None -> "none (the estimate is not at a maximum)")
