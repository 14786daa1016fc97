(** Deterministic, splittable pseudo-random number generator.

    All stochastic behaviour in the library flows through this module so that
    every experiment is reproducible from a single integer seed.  The
    implementation is SplitMix64, which has a 64-bit state, passes BigCrush,
    and supports cheap splitting for independent streams. *)

type t
(** Mutable generator state: the 64-bit SplitMix64 state, held unboxed, so
    a draw allocates nothing inside this module. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy evolves independently. *)

val split : t -> t
(** [split t] advances [t] and returns a statistically independent child
    generator.  Use one child per subsystem to decouple their draws. *)

val split_n : t -> int -> t array
(** [split_n t n] advances [t] [n] times and returns [n] independent
    children, in draw order.  Splitting all streams {e up front} — one
    per task, in task order — is what keeps parallel fan-outs
    bit-identical to serial runs: each task owns its stream regardless
    of which domain executes it, see {!Par.Pool}. *)

val stream : seed:int -> index:int -> t
(** [stream ~seed ~index] is the [index]-th member of an unbounded
    family of decorrelated generators derived from [seed] alone — no
    parent state to thread.  Equal [(seed, index)] pairs always yield
    equal streams, and [stream ~seed ~index:0] differs from
    [create seed].  Use when tasks are keyed by a stable index (sweep
    position, procedure rank) rather than spawned from a live parent. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound-1].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound). *)

val unit_float : t -> float
(** Uniform on [0,1). *)

val bits53 : t -> int
(** The 53 bits {!unit_float} scales, as a non-negative int:
    [unit_float t] is [float_of_int (bits53 t) /. 2{^53}] bit for bit.  A
    sampler in another module builds its uniform variates from these, so
    no boxed float crosses the module boundary. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform draw from a non-empty array. *)

val categorical : t -> float array -> int
(** [categorical t w] draws index [i] with probability proportional to
    [w.(i)].  Weights must be non-negative and not all zero. *)
