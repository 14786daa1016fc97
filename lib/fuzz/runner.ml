(* The fuzzing loop: deterministic case execution, parallel fan-out,
   shrinking of failures, and corpus replay.

   Determinism contract: every case derives its randomness from
   [Stats.Rng.stream ~seed ~index] split into fixed per-purpose streams,
   cases fan out over [Par.Pool] (input-order results, lowest-index
   exception), and all reporting happens after the map — so the report is
   byte-identical at any [-j], and any single case can be re-run in
   isolation from (seed, index) alone. *)

module Ast = Mote_lang.Ast
module Check = Mote_lang.Check
module Compile = Mote_lang.Compile

type oracle =
  | Gen_check
  | Optimize
  | Rewrite
  | Em
  | Convergence
  | Faults
  | Streaming
  | Interpreter
  | Layout_eval

let oracle_name = function
  | Gen_check -> "gen-check"
  | Optimize -> "optimize"
  | Rewrite -> "rewrite"
  | Em -> "em"
  | Convergence -> "convergence"
  | Faults -> "faults"
  | Streaming -> "streaming"
  | Interpreter -> "interpreter"
  | Layout_eval -> "layout-eval"

let oracle_of_name = function
  | "gen-check" -> Some Gen_check
  | "optimize" -> Some Optimize
  | "rewrite" -> Some Rewrite
  | "em" -> Some Em
  | "convergence" -> Some Convergence
  | "faults" -> Some Faults
  | "streaming" -> Some Streaming
  | "interpreter" -> Some Interpreter
  | "layout-eval" -> Some Layout_eval
  | _ -> None

let all_oracles =
  [ Gen_check; Optimize; Rewrite; Em; Convergence; Faults; Streaming; Interpreter; Layout_eval ]

(* ------------------------------------------------------------------ *)
(* Case execution.                                                    *)
(* ------------------------------------------------------------------ *)

(* Streams per case, in fixed order: program generation, environment
   seeding, placement randomness (rewrite oracle), convergence oracle,
   fault injection (faults oracle), streaming oracle, interpreter oracle,
   layout-eval oracle.  Adding a stream at the END keeps old (seed, case)
   repros valid. *)
let case_streams ~seed index =
  Stats.Rng.split_n (Stats.Rng.stream ~seed ~index) 8

let env_seed_of rng = Stats.Rng.int rng 1_000_000

type case_result = {
  index : int;
  program : Ast.program;
  verdicts : (oracle * Oracles.verdict) list;
  layout_runs : int * int;
}

let run_case ?(params = Oracles.default_params) ?(config = Gen.default_config)
    ~seed index =
  let s = case_streams ~seed index in
  let program = Gen.program ~config s.(0) in
  let env_seed = env_seed_of s.(1) in
  let verdicts, layout_runs =
    match Check.program program with
    | Error msgs ->
        ( [
            ( Gen_check,
              Oracles.Fail
                ("generated program fails Check: " ^ String.concat "; " msgs) );
          ],
          (0, 0) )
    | Ok () -> (
        match Compile.compile program with
        | exception Invalid_argument msg ->
            ([ (Gen_check, Oracles.Fail ("generated program fails compile: " ^ msg)) ], (0, 0))
        | c ->
            let verdicts =
              [
                (Gen_check, Oracles.Pass);
                (Optimize, Oracles.optimize params ~env_seed program c);
                (Rewrite, Oracles.rewrite params s.(2) ~env_seed c);
                (Em, Oracles.em_agreement params ~env_seed c);
                (Convergence, Oracles.convergence params s.(3) c);
                (Faults, Oracles.faults params s.(4) ~env_seed c);
                (Streaming, Oracles.streaming params s.(5) ~env_seed c);
                (Interpreter, Oracles.interpreter params s.(6) ~env_seed c);
              ]
            in
            let layout, runs = Oracles.layout_eval params s.(7) ~env_seed program c in
            (verdicts @ [ (Layout_eval, layout) ], runs))
  in
  { index; program; verdicts; layout_runs }

(* Re-run one oracle on a *candidate* program under case [index]'s exact
   streams — the shrinking predicate.  The generation stream is split but
   unused (the candidate replaces its output), so the remaining streams
   match the original case bit-for-bit. *)
let oracle_fails ?(params = Oracles.default_params) ~seed ~index oracle candidate =
  let s = case_streams ~seed index in
  let env_seed = env_seed_of s.(1) in
  let is_fail = function Oracles.Fail _ -> true | Oracles.Pass | Oracles.Skip _ -> false in
  (* A reduction may drop the task procedure itself; the case is then
     meaningless for every machine-level oracle. *)
  let has_task =
    List.exists
      (fun (pr : Ast.proc) -> pr.name = Gen.task_name && pr.params = [])
      candidate.Ast.procs
  in
  if not has_task then false
  else
  match Check.program candidate with
  | Error _ -> oracle = Gen_check
  | Ok () -> (
      match Compile.compile candidate with
      | exception Invalid_argument _ -> oracle = Gen_check
      | c -> (
          (* Reductions can escape the generator's termination and
             memory-safety invariants (e.g. dropping a loop counter's
             increment).  A candidate whose plain build faults would make
             every oracle "fail" for an unrelated reason, so reject it
             outright — shrinking must stay inside the invariant envelope
             the original failure lived in. *)
          match
            Oracles.observe ~env_seed ~invocations:params.Oracles.invocations c
              c.Compile.program
          with
          | Error _ -> false
          | Ok _ -> (
              match oracle with
              | Gen_check -> false
              | Optimize -> is_fail (Oracles.optimize params ~env_seed candidate c)
              | Rewrite -> is_fail (Oracles.rewrite params s.(2) ~env_seed c)
              | Em -> is_fail (Oracles.em_agreement params ~env_seed c)
              | Convergence -> is_fail (Oracles.convergence params s.(3) c)
              | Faults -> is_fail (Oracles.faults params s.(4) ~env_seed c)
              | Streaming -> is_fail (Oracles.streaming params s.(5) ~env_seed c)
              | Interpreter -> is_fail (Oracles.interpreter params s.(6) ~env_seed c)
              | Layout_eval ->
                  is_fail (fst (Oracles.layout_eval params s.(7) ~env_seed candidate c)))))

(* Gen_check findings fail Check or compile, which Shrink.minimize's
   validity filter would reject — minimize them with a hand-rolled greedy
   walk over the same reductions. *)
let shrink_gen_check ~max_evals program =
  let evals = ref 0 and steps = ref 0 in
  let fails q =
    incr evals;
    match Check.program q with
    | Error _ -> true
    | Ok () -> (
        match Compile.compile q with
        | exception Invalid_argument _ -> true
        | _ -> false)
  in
  let rec go p =
    if !evals >= max_evals then p
    else
      match
        List.find_opt (fun q -> !evals < max_evals && fails q) (Shrink.shrink_program p)
      with
      | Some q ->
          incr steps;
          go q
      | None -> p
  in
  let reduced = go program in
  (reduced, { Shrink.steps = !steps; evals = !evals })

type failure = {
  f_case : int;
  f_oracle : oracle;
  f_message : string;
  f_program : Ast.program;
  f_reduced : Ast.program;
  f_shrink : Shrink.stats;
}

let shrink_failure ?(params = Oracles.default_params) ?(max_evals = 2000) ~seed
    ~index oracle message program =
  let reduced, stats =
    match oracle with
    | Gen_check -> shrink_gen_check ~max_evals program
    | _ ->
        Shrink.minimize ~max_evals
          ~still_fails:(oracle_fails ~params ~seed ~index oracle)
          program
  in
  {
    f_case = index;
    f_oracle = oracle;
    f_message = message;
    f_program = program;
    f_reduced = reduced;
    f_shrink = stats;
  }

(* ------------------------------------------------------------------ *)
(* The campaign.                                                      *)
(* ------------------------------------------------------------------ *)

type report = {
  seed : int;
  cases : int;
  pass : (oracle * int) list;
  skip : (oracle * int) list;
  layout_runs : int * int;
  failures : failure list;
}

let count pred results o =
  List.fold_left
    (fun n r ->
      List.fold_left
        (fun n (o', v) -> if o' = o && pred v then n + 1 else n)
        n r.verdicts)
    0 results

(* How many failures get the (expensive) shrinking treatment; the rest
   are still reported with their full program. *)
let max_shrunk = 4

let run ?(params = Oracles.default_params) ?(config = Gen.default_config) ~seed
    ~cases ~jobs () =
  let results =
    Par.Pool.with_pool ~domains:jobs (fun pool ->
        Par.Pool.map pool
          (fun index -> run_case ~params ~config ~seed index)
          (Array.init cases Fun.id))
  in
  let results = Array.to_list results in
  let pass =
    List.map
      (fun o -> (o, count (function Oracles.Pass -> true | _ -> false) results o))
      all_oracles
  in
  let skip =
    List.map
      (fun o -> (o, count (function Oracles.Skip _ -> true | _ -> false) results o))
      all_oracles
  in
  let failing =
    List.concat_map
      (fun r ->
        List.filter_map
          (function
            | o, Oracles.Fail msg -> Some (r.index, o, msg, r.program)
            | _ -> None)
          r.verdicts)
      results
  in
  let failures =
    List.mapi
      (fun i (index, o, msg, program) ->
        if i < max_shrunk then shrink_failure ~params ~seed ~index o msg program
        else
          {
            f_case = index;
            f_oracle = o;
            f_message = msg;
            f_program = program;
            f_reduced = program;
            f_shrink = { Shrink.steps = 0; evals = 0 };
          })
      failing
  in
  let layout_runs =
    List.fold_left
      (fun (d, f) (r : case_result) -> (d + fst r.layout_runs, f + snd r.layout_runs))
      (0, 0) results
  in
  { seed; cases; pass; skip; layout_runs; failures }

let pp_failure ppf f =
  Format.fprintf ppf "@[<v>FAIL case %d oracle=%s@,%s@," f.f_case
    (oracle_name f.f_oracle) f.f_message;
  Format.fprintf ppf "shrunk %d -> %d statements (%d steps, %d evals)@,"
    (Gen.stmt_count f.f_program)
    (Gen.stmt_count f.f_reduced)
    f.f_shrink.Shrink.steps f.f_shrink.Shrink.evals;
  Format.fprintf ppf "reduced program:@,%a@]" Ast.pp_program f.f_reduced

let pp_report ppf r =
  Format.fprintf ppf "@[<v>fuzz: seed=%d cases=%d@," r.seed r.cases;
  List.iter
    (fun o ->
      Format.fprintf ppf "  %-12s %4d pass  %4d skip  %4d fail" (oracle_name o)
        (List.assoc o r.pass) (List.assoc o r.skip)
        (List.length (List.filter (fun f -> f.f_oracle = o) r.failures));
      if o = Layout_eval then
        Format.fprintf ppf "  %4d derived  %4d full" (fst r.layout_runs) (snd r.layout_runs);
      Format.fprintf ppf "@,")
    all_oracles;
  List.iter
    (fun f ->
      Format.fprintf ppf "%a@,repro: --seed %d --only %d@," pp_failure f r.seed
        f.f_case)
    r.failures;
  Format.fprintf ppf "%s@]"
    (if r.failures = [] then "all oracles passed" else "FAILURES DETECTED")

(* ------------------------------------------------------------------ *)
(* Corpus: previously-shrunk findings replayed as regression tests.   *)
(* ------------------------------------------------------------------ *)

(* A corpus file is line-oriented: '#' comments, then 'key value' pairs.
   Two kinds:

     kind fuzz          — replay one fuzzer case end to end
     seed 123
     case 17
     oracle optimize    — optional; default: all oracles must not Fail

     kind workloads     — Workloads.Generator must produce a program that
     seed 123             checks and compiles under the given config
     max_depth 3
     stmts_per_block 2
     loop_bound 4
*)

type corpus_entry =
  | Fuzz_case of { seed : int; case : int; oracle : oracle option }
  | Workloads_case of Workloads.Generator.config

exception Corpus_error of string

let parse_corpus s =
  let fields =
    String.split_on_char '\n' s
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None
           else
             match String.index_opt line ' ' with
             | None -> raise (Corpus_error ("malformed line: " ^ line))
             | Some i ->
                 Some
                   ( String.sub line 0 i,
                     String.trim (String.sub line i (String.length line - i)) ))
  in
  let lookup k = List.assoc_opt k fields in
  let int_field k =
    match lookup k with
    | None -> raise (Corpus_error ("missing field: " ^ k))
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> raise (Corpus_error ("field " ^ k ^ ": not an integer: " ^ v)))
  in
  match lookup "kind" with
  | Some "fuzz" ->
      let oracle =
        match lookup "oracle" with
        | None -> None
        | Some name -> (
            match oracle_of_name name with
            | Some o -> Some o
            | None -> raise (Corpus_error ("unknown oracle: " ^ name)))
      in
      Fuzz_case { seed = int_field "seed"; case = int_field "case"; oracle }
  | Some "workloads" ->
      Workloads_case
        {
          Workloads.Generator.seed = int_field "seed";
          max_depth = int_field "max_depth";
          stmts_per_block = int_field "stmts_per_block";
          loop_bound = int_field "loop_bound";
        }
  | Some k -> raise (Corpus_error ("unknown kind: " ^ k))
  | None -> raise (Corpus_error "missing field: kind")

let replay ?(params = Oracles.default_params) ?(config = Gen.default_config) entry =
  match entry with
  | Fuzz_case { seed; case; oracle } -> (
      let r = run_case ~params ~config ~seed case in
      let relevant =
        match oracle with
        | None -> r.verdicts
        | Some o -> List.filter (fun (o', _) -> o' = o) r.verdicts
      in
      match
        List.filter_map
          (function o, Oracles.Fail m -> Some (oracle_name o ^ ": " ^ m) | _ -> None)
          relevant
      with
      | [] -> Ok ()
      | msgs ->
          Error
            (Printf.sprintf "fuzz case seed=%d case=%d: %s" seed case
               (String.concat "; " msgs)))
  | Workloads_case wconfig -> (
      let program = Workloads.Generator.generate ~config:wconfig () in
      match Check.program program with
      | Error msgs ->
          Error
            (Printf.sprintf "workloads seed=%d: Check failed: %s"
               wconfig.Workloads.Generator.seed (String.concat "; " msgs))
      | Ok () -> (
          match Compile.compile program with
          | exception Invalid_argument msg ->
              Error
                (Printf.sprintf "workloads seed=%d: compile failed: %s"
                   wconfig.Workloads.Generator.seed msg)
          | _ -> Ok ()))
