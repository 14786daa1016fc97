(** Energy accounting — the reason any of this matters on a mote.

    A sensor node spends its battery on three things we can meter from a
    run: CPU-active cycles, sleep cycles, and radio transmissions.  The
    coefficients are TelosB-flavoured (1 MHz-normalized): 1.8 mA active,
    5.1 µA sleep at 3 V, ~2 µJ per transmitted payload word.
    Absolute joules are not the point — the {e ratio} between two layouts
    of the same program is, and it only depends on the cycle split. *)

type report = {
  active_mj : float;  (** millijoules. *)
  sleep_mj : float;
  radio_mj : float;
  total_mj : float;
}

val of_parts : busy_cycles:int -> idle_cycles:int -> tx_words:int -> unit -> report
(** @raise Invalid_argument on a negative input. *)

val lifetime_days : report -> horizon_cycles:int -> cycles_per_second:int -> float
(** Projected battery life if the measured window is representative:
    battery energy (2×AA ≈ 2500 mAh at 3 V) divided by the
    window's average power.  [cycles_per_second] is the CPU clock (e.g.
    1_000_000). *)

val pp : Format.formatter -> report -> unit
