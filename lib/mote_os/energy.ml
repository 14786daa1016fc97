(* TelosB: 3 V supply, 1.8 mA active, 5.1 uA sleep, at a 1 MHz cycle
   clock: 5.4 nJ per active cycle, 0.0153 nJ per sleep cycle.  A
   CC2420-style radio spends roughly 2 uJ shipping one 16-bit payload word
   (incl. MAC framing amortization). *)
let active_nj_per_cycle = 5.4
let sleep_nj_per_cycle = 0.0153
let tx_nj_per_word = 2000.0

(* 2×AA at 3 V. *)
let battery_mah = 2500.0
let volts = 3.0

type report = { active_mj : float; sleep_mj : float; radio_mj : float; total_mj : float }

let of_parts ~busy_cycles ~idle_cycles ~tx_words () =
  if busy_cycles < 0 || idle_cycles < 0 || tx_words < 0 then
    invalid_arg "Energy.of_parts: negative input";
  let nj_to_mj v = v /. 1e6 in
  let active_mj = nj_to_mj (float_of_int busy_cycles *. active_nj_per_cycle) in
  let sleep_mj = nj_to_mj (float_of_int idle_cycles *. sleep_nj_per_cycle) in
  let radio_mj = nj_to_mj (float_of_int tx_words *. tx_nj_per_word) in
  { active_mj; sleep_mj; radio_mj; total_mj = active_mj +. sleep_mj +. radio_mj }

let lifetime_days report ~horizon_cycles ~cycles_per_second =
  if horizon_cycles <= 0 || cycles_per_second <= 0 then
    invalid_arg "Energy.lifetime_days: non-positive horizon or clock";
  let window_seconds = float_of_int horizon_cycles /. float_of_int cycles_per_second in
  let avg_power_mw = report.total_mj /. window_seconds in
  (* Battery energy in millijoules: mAh * 3600 * V. *)
  let battery_mj = battery_mah *. 3600.0 *. volts in
  battery_mj /. avg_power_mw /. 86_400.0

let pp fmt r =
  Format.fprintf fmt "active %.3f mJ + sleep %.3f mJ + radio %.3f mJ = %.3f mJ"
    r.active_mj r.sleep_mj r.radio_mj r.total_mj
