(** Static instrumentation-overhead accounting for experiment T6.

    Dynamic (cycle) overhead comes from actually running each binary under
    one config; [Codetomo.Pipeline.overhead] does that, and attaches the
    reports below to its runs.  Here we account for what can be
    read off the binaries: flash occupancy and the RAM the
    instrumentation needs. *)

open Mote_isa

type report = {
  flash_words : int;
  flash_overhead_words : int;  (** vs. the base binary. *)
  flash_overhead_pct : float;
  ram_words : int;  (** Buffers/counters the scheme needs. *)
}

val probes_report : base:Program.t -> instrumented:Program.t -> report
(** RAM = the tomography log buffer: probes stream (pc, tick) pairs;
    motes batch them in a small fixed buffer (16 words) before shipping
    over the radio/UART. *)

val edges_report : base:Program.t -> instrumented:Program.t -> report
(** RAM = one word per edge counter, derived from the base binary. *)
