(* The shared Cmdliner vocabulary for ctomo subcommands.

   Every subcommand that profiles, estimates or places speaks the same
   flag set — workload selection, timing model, link-fault model,
   robustness knobs, and the parallelism dial.  Defining each term once
   here keeps names, defaults and --help texts identical across
   profile/place/report/fleet; a cram test (test/cli/help.t) holds the
   subcommands to it. *)

open Cmdliner
module P = Codetomo.Pipeline

let workload_conv =
  let parse s =
    match Workloads.find s with
    | w -> Ok w
    | exception Not_found ->
        Error
          (`Msg
            (Printf.sprintf "unknown workload %S (try: %s)" s
               (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all))))
  in
  Arg.conv (parse, fun fmt w -> Format.pp_print_string fmt w.Workloads.name)

let workload_arg =
  Arg.(
    required
    & opt (some workload_conv) None
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload to operate on.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Environment seed.")

let resolution_arg =
  Arg.(
    value & opt int 1
    & info [ "resolution" ] ~docv:"CYCLES" ~doc:"Timer resolution in cycles per tick.")

let jitter_arg =
  Arg.(
    value & opt float 0.0
    & info [ "jitter" ] ~docv:"SIGMA" ~doc:"Gaussian timer jitter in cycles.")

let horizon_arg =
  Arg.(
    value & opt (some int) None
    & info [ "horizon" ] ~docv:"CYCLES" ~doc:"Simulated cycles (default: workload's).")

let method_conv =
  let parse = function
    | "em" -> Ok Tomo.Estimator.Em
    | "moments" -> Ok Tomo.Estimator.Moments
    | "naive" -> Ok Tomo.Estimator.Naive
    | s -> Error (`Msg (Printf.sprintf "unknown method %S (em|moments|naive)" s))
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Tomo.Estimator.method_name m))

let method_arg =
  Arg.(
    value
    & opt method_conv Tomo.Estimator.Em
    & info [ "method" ] ~docv:"METHOD" ~doc:"Estimator: em, moments or naive.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "domains" ] ~docv:"N"
        ~doc:
          "Domains for the parallel stages (per-procedure estimation and \
           intervals, the four layout evaluations).  Defaults to \
           $(b,CODETOMO_DOMAINS), else the recommended domain count.  \
           Output is bit-identical at any value.")

(* Every parallel task derives its randomness from its own key (workload
   seed or a pre-split stream), so -j changes only wall-clock time,
   never a number. *)
let with_pool domains f =
  let pool = Par.Pool.create ?domains () in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

(* Operational failures (unreadable files, infeasible requests, malformed
   inputs) become a one-line message and exit 1 instead of a backtrace. *)
let guarded f =
  try f () with
  | Invalid_argument msg | Sys_error msg | Failure msg ->
      Printf.eprintf "ctomo: %s\n%!" msg;
      exit 1
  | Cfgir.Profile_io.Format_error msg ->
      Printf.eprintf "ctomo: %s\n%!" msg;
      exit 1
  | Profilekit.Wire.Error e ->
      Printf.eprintf "ctomo: %s\n%!" (Profilekit.Wire.error_to_string e);
      exit 1

(* --- link-fault and robustness flags (profile / place / report / fleet) --- *)

let loss_arg =
  Arg.(
    value & opt float 0.0
    & info [ "loss" ] ~docv:"P" ~doc:"Independent per-record probe loss probability on the uplink.")

let corrupt_arg =
  Arg.(
    value & opt float 0.0
    & info [ "corrupt" ] ~docv:"P" ~doc:"Per-record timestamp bit-corruption probability.")

let duplicate_arg =
  Arg.(
    value & opt float 0.0
    & info [ "duplicate" ] ~docv:"P" ~doc:"Per-record duplication probability.")

let reorder_arg =
  Arg.(
    value & opt float 0.0
    & info [ "reorder" ] ~docv:"P" ~doc:"Per-record bounded-reordering probability.")

let faults_of loss corrupt duplicate reorder =
  if loss = 0.0 && corrupt = 0.0 && duplicate = 0.0 && reorder = 0.0 then None
  else
    Some
      {
        Profilekit.Transport.default with
        Profilekit.Transport.drop = loss;
        corrupt;
        duplicate;
        reorder;
      }

let faults_term =
  Term.(const faults_of $ loss_arg $ corrupt_arg $ duplicate_arg $ reorder_arg)

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:"Quarantine infeasible timings (cost envelope + MAD) before estimation.")

let robust_arg =
  Arg.(
    value & flag
    & info [ "robust" ]
        ~doc:"Contamination-robust EM: add a uniform outlier mixture component.")

let min_samples_arg =
  Arg.(
    value & opt int 1
    & info [ "min-samples" ] ~docv:"N"
        ~doc:
          "Reject procedures with fewer surviving samples; rejected procedures fall \
           back to the uniform prior and keep their natural layout.")

(* The one flags -> estimator-options mapping.  [robustness_term] reads
   the knobs every batch estimator takes; [opts_term] adds the method
   choice (report always runs EM, so it takes the former). *)
let robustness_term =
  let make sanitize robust min_samples = { P.default_opts with P.sanitize; robust; min_samples } in
  Term.(const make $ sanitize_arg $ robust_arg $ min_samples_arg)

let opts_term =
  Term.(const (fun method_ opts -> { opts with P.method_ }) $ method_arg $ robustness_term)

let config_of seed resolution jitter horizon faults =
  {
    P.seed;
    horizon;
    timer_resolution = resolution;
    timer_jitter = jitter;
    prediction = Mote_machine.Machine.Predict_not_taken;
    faults;
  }

let print_transport run =
  match run.P.transport with
  | None -> ()
  | Some ts ->
      Printf.printf "link: %s; %d windows discarded\n\n"
        (Format.asprintf "%a" Profilekit.Transport.pp_stats ts)
        run.P.discarded

let theta_str theta =
  "[" ^ String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.3f") theta)) ^ "]"
