(** Memory-mapped peripherals of the simulated mote.

    The timer models the on-mote hardware clock the Code Tomography probes
    read: it ticks once every [resolution] CPU cycles and can carry Gaussian
    read jitter, which is exactly the measurement noise the estimator has to
    live with (experiment F3 sweeps both).  The probe and counter ports are
    the two instrumentation back ends; sensor and radio connect to the
    stochastic environment. *)

type probe_record = { pc : int; cycles : int; value : int }

type t

val create :
  ?timer_resolution:int ->
  ?timer_jitter:float ->
  ?rng:Stats.Rng.t ->
  unit ->
  t
(** [timer_resolution] in cycles per tick (default 1);
    [timer_jitter] is the std-dev of Gaussian noise in cycles added before
    quantization (default 0).  [rng] drives the jitter, and nothing else
    (default seed 7).
    @raise Invalid_argument on a non-positive resolution or a negative,
    infinite or NaN jitter. *)

val timer_resolution : t -> int

val read_timer : t -> cycles:int -> int
(** Current tick count: ⌊(cycles + noise) / resolution⌋, clamped at 0. *)

val set_sensor : t -> (int -> int) -> unit
(** Install the environment's sensor function (channel → reading). *)

val read_sensor : t -> channel:int -> int

val radio_push_rx : t -> int -> unit
(** Enqueue an inbound payload word (called by the environment / OS). *)

val radio_rx : t -> int
(** Pop the next inbound word; 0 when the queue is empty. *)

val radio_rx_pending : t -> int

val radio_tx : t -> int -> unit
val tx_log : t -> int list
(** Transmitted words, oldest first. *)

val tx_count : t -> int
(** [List.length (tx_log t)], in O(1). *)

val tx_since : t -> int -> int list
(** [tx_since t n]: the words transmitted after the first [n], oldest
    first — [tx_log t] without its first [n] elements (empty when [n] is
    at least {!tx_count}).  O(words returned). *)

val set_leds : t -> int -> unit
val leds : t -> int
val led_writes : t -> int

val probe : t -> pc:int -> cycles:int -> value:int -> unit
val probe_log : t -> probe_record list
(** Every probe write, oldest first.  The log is lossless: record loss
    on the way to the base station is {!Profilekit.Transport}'s to
    model. *)

val bump_counter : t -> int -> unit
val counter : t -> int -> int
val counters : t -> (int * int) list
(** All counters with non-zero values, sorted by id. *)
