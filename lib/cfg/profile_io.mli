(** Persisting edge-frequency profiles.

    Profile-guided workflows separate measurement from compilation: the
    profile is collected on the device fleet today and fed to the placement
    pass in next week's build.  This module gives {!Freq} a stable,
    human-readable text form, keyed by procedure name and block structure
    so a stale profile is detected rather than silently misapplied.

    Format (line-oriented, ['#'] comments):
    {v
    codetomo-profile 1
    proc <name> blocks <n> invocations <float>
    edge <src> <dst> taken|fall|jump <weight>
    ...
    v} *)

exception Format_error of string

val to_string : (string * Freq.t) list -> string

val of_string : lookup:(string -> Cfg.t option) -> string -> (string * Freq.t) list
(** Re-attach each saved profile to its CFG via [lookup].  Procedures the
    lookup does not know are skipped.
    @raise Format_error on syntax errors, on an invocation count or edge
    weight that is not a finite non-negative number, or when a profile's
    block count does not match the CFG it is being attached to (stale
    profile). *)

val save : path:string -> (string * Freq.t) list -> unit
val load : path:string -> lookup:(string -> Cfg.t option) -> (string * Freq.t) list
