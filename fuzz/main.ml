(* Differential fuzzing CLI.

     fuzz/main.exe --cases 500 --seed 1 -j 4

   runs 500 cases of the eight-oracle differential harness; the report is
   byte-identical at any -j.  Exit status 1 when any oracle failed.
   [--only I] replays a single case (as printed in a failure's repro
   line), shrinking any failure it reproduces. *)

let () =
  let cases = ref 200 in
  let seed = ref 1 in
  let jobs = ref 1 in
  let only = ref None in
  let specs =
    [
      ("--cases", Arg.Set_int cases, "N number of cases to run (default 200)");
      ("--seed", Arg.Set_int seed, "S campaign seed (default 1)");
      ("-j", Arg.Set_int jobs, "D worker domains (default 1)");
      ( "--only",
        Arg.Int (fun i -> only := Some i),
        "I replay a single case index and shrink its failures" );
    ]
  in
  let usage = "fuzz/main.exe [--cases N] [--seed S] [-j D] [--only I]" in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    usage;
  match !only with
  | Some index ->
      let r = Fuzz.Runner.run_case ~seed:!seed index in
      Format.printf "fuzz: seed=%d case=%d@." !seed index;
      List.iter
        (fun (o, v) ->
          Format.printf "  %-12s %s@."
            (Fuzz.Runner.oracle_name o)
            (match v with
            | Fuzz.Oracles.Pass -> "pass"
            | Fuzz.Oracles.Skip m -> "skip: " ^ m
            | Fuzz.Oracles.Fail _ -> "FAIL"))
        r.Fuzz.Runner.verdicts;
      let failures =
        List.filter_map
          (function
            | o, Fuzz.Oracles.Fail msg ->
                Some
                  (Fuzz.Runner.shrink_failure ~seed:!seed ~index o msg
                     r.Fuzz.Runner.program)
            | _ -> None)
          r.Fuzz.Runner.verdicts
      in
      List.iter (fun f -> Format.printf "%a@." Fuzz.Runner.pp_failure f) failures;
      exit (if failures = [] then 0 else 1)
  | None ->
      let report = Fuzz.Runner.run ~seed:!seed ~cases:!cases ~jobs:!jobs () in
      Format.printf "%a@." Fuzz.Runner.pp_report report;
      exit (if report.Fuzz.Runner.failures = [] then 0 else 1)
