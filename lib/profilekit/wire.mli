(** Versioned serialization of probe-record batches — the fleet uplink
    format.

    A mote (or its gateway) ships probe records to the base station in
    batches; once batches cross process or deployment boundaries the
    format needs a header, or a fleet rolling out new firmware corrupts
    every old base station silently.  Every serialized batch therefore
    starts with a fixed magic and a format version:

    {v
      offset  size  field
      0       4     magic "CTPL"
      4       2     format version (big endian; currently 1)
      6       4     record count   (big endian)
      10      10/r  records: pc u16 | cycles u48 | value u16
    v}

    {!decode} accepts exactly the versions this build understands and
    rejects everything else with a {e typed} error — never a silent
    misparse: a batch from firmware vN+1 fails loudly as
    [Unsupported_version], and line noise fails as [Bad_magic],
    [Truncated] or [Overlong].  A base station decodes with {!decode_exn}
    before feeding the records to a {!Probes.Collector} (the fleet
    ingest does exactly this), so a batch it cannot read never reaches
    a collector. *)

type error =
  | Bad_magic
      (** The first four bytes are not "CTPL" — not a probe batch. *)
  | Unsupported_version of int
      (** Well-formed header, but a format this build does not speak. *)
  | Truncated of { expected : int; got : int }
      (** Fewer bytes than the header (or its record count) needs. *)
  | Overlong of { expected : int; got : int }
      (** Bytes trail the header's declared record count. *)

exception Error of error

val magic : string
(** ["CTPL"]. *)

val error_to_string : error -> string

val encode : Mote_machine.Devices.probe_record list -> string
(** Serialize a batch under format version 1.  [decode (encode b)]
    is [Ok b] for any batch whose fields fit the wire widths (pc and
    value are 16-bit on the mote already; cycles fits 48 bits for any
    simulated horizon). *)

val decode : string -> (Mote_machine.Devices.probe_record list, error) result
(** Parse a serialized batch; total — all failures land in [Error]. *)

val decode_exn : string -> Mote_machine.Devices.probe_record list
(** {!decode}, raising {!Error} — for callers already inside an error
    boundary (the ctomo CLI's [guarded], the fleet ingest loop). *)
