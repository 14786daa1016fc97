(** The fuzzing loop: deterministic cases, parallel fan-out, shrinking,
    corpus replay.

    Each case is fully determined by [(seed, index)]: its RNG streams come
    from {!Stats.Rng.stream} split once per purpose, the fan-out uses
    {!Par.Pool} (input-order results), and reporting happens after the
    map — so {!run}'s report is byte-identical at any job count, and any
    case replays in isolation. *)

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
(** [Gen_check] is the implicit zeroth oracle: every generated program
    must pass {!Mote_lang.Check} and compile. *)

val oracle_name : oracle -> string

type case_result = {
  index : int;
  program : Mote_lang.Ast.program;
  verdicts : (oracle * Oracles.verdict) list;
  layout_runs : int * int;
      (** The layout-eval oracle's distinct placed binaries: derived from
          the natural run, and run in full. *)
}

val run_case :
  ?params:Oracles.params ->
  ?config:Gen.config ->
  seed:int ->
  int ->
  case_result
(** Generate and judge case [index] under [seed]. *)

type failure = {
  f_case : int;
  f_oracle : oracle;
  f_message : string;
  f_program : Mote_lang.Ast.program;  (** As generated. *)
  f_reduced : Mote_lang.Ast.program;  (** After shrinking. *)
  f_shrink : Shrink.stats;
}

val shrink_failure :
  ?params:Oracles.params ->
  ?max_evals:int ->
  seed:int ->
  index:int ->
  oracle ->
  string ->
  Mote_lang.Ast.program ->
  failure
(** Minimize a failing program while the given oracle still fails under
    the case's exact streams. *)

type report = {
  seed : int;
  cases : int;
  pass : (oracle * int) list;
  skip : (oracle * int) list;
  layout_runs : int * int;  (** Summed over the cases. *)
  failures : failure list;
}

val run :
  ?params:Oracles.params ->
  ?config:Gen.config ->
  seed:int ->
  cases:int ->
  jobs:int ->
  unit ->
  report
(** Run the campaign on a fresh {!Par.Pool} of [jobs] domains and shrink
    the first few failures.  The report does not depend on [jobs]. *)

val pp_failure : Format.formatter -> failure -> unit

val pp_report : Format.formatter -> report -> unit
(** Deterministic human-readable report: per-oracle tallies, then each
    failure with its message, shrink statistics, reduced source and a
    self-contained repro line. *)

(** {2 Corpus} *)

type corpus_entry =
  | Fuzz_case of { seed : int; case : int; oracle : oracle option }
      (** Replay one fuzzer case; [None] means no oracle may [Fail]. *)
  | Workloads_case of Workloads.Generator.config
      (** {!Workloads.Generator} output must check and compile. *)

exception Corpus_error of string

val parse_corpus : string -> corpus_entry
(** Parse a [.case] file: ['#'] comments and [key value] lines; see
    [test/corpus/README] for the schema.  @raise Corpus_error. *)

val replay :
  ?params:Oracles.params -> ?config:Gen.config -> corpus_entry -> (unit, string) result
