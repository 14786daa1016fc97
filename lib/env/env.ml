type sensor_model =
  | Constant of int
  | Uniform of int * int
  | Gaussian of { mu : float; sigma : float }
  | Random_walk of { start : int; step_sigma : float; lo : int; hi : int }
  | Bursty of {
      quiet : sensor_model;
      active : sensor_model;
      p_enter : float;
      p_exit : float;
    }

type radio_model =
  | Silent
  | Poisson of { per_kilocycle : float; payload_lo : int; payload_hi : int }

type config = { seed : int; channels : (int * sensor_model) list; radio : radio_model }

let default_config =
  { seed = 42; channels = [ (0, Gaussian { mu = 512.0; sigma = 80.0 }) ]; radio = Silent }

let adc_min = 0
let adc_max = 1023

(* Mutable per-channel state threaded through successive readings. *)
type channel_state = { model : sensor_model; mutable walk : float; mutable active : bool }

(* Configured channels, looked up by a scan of [ids]: a configuration has
   a handful of channels, and a scan hashes nothing and allocates
   nothing.  A channel configured twice keeps its last model. *)
type t = {
  cfg : config;
  rng : Stats.Rng.t;
  radio_rng : Stats.Rng.t;
  ids : int array;
  states : channel_state array;
}

let create cfg =
  let rng = Stats.Rng.create cfg.seed in
  let radio_rng = Stats.Rng.split rng in
  let channels =
    List.fold_left
      (fun acc (ch, model) ->
        let walk = match model with Random_walk { start; _ } -> float_of_int start | _ -> 0.0 in
        (ch, { model; walk; active = false }) :: List.remove_assoc ch acc)
      [] cfg.channels
  in
  let channels = Array.of_list channels in
  { cfg; rng; radio_rng; ids = Array.map fst channels; states = Array.map snd channels }

let config t = t.cfg

let clamp v = Stdlib.max adc_min (Stdlib.min adc_max v)

let rec sample t state model =
  match model with
  | Constant v -> clamp v
  | Uniform (lo, hi) ->
      if hi < lo then invalid_arg "Env: uniform bounds inverted";
      clamp (lo + Stats.Rng.int t.rng (hi - lo + 1))
  | Gaussian { mu; sigma } ->
      clamp (int_of_float (Float.round (Stats.Dist.gaussian t.rng ~mu ~sigma)))
  | Random_walk { step_sigma; lo; hi; _ } ->
      let next = state.walk +. Stats.Dist.gaussian t.rng ~mu:0.0 ~sigma:step_sigma in
      let next = Stdlib.max (float_of_int lo) (Stdlib.min (float_of_int hi) next) in
      state.walk <- next;
      clamp (int_of_float (Float.round next))
  | Bursty { quiet; active; p_enter; p_exit } ->
      (if state.active then begin
         if Stats.Rng.bernoulli t.rng p_exit then state.active <- false
       end
       else if Stats.Rng.bernoulli t.rng p_enter then state.active <- true);
      sample t state (if state.active then active else quiet)

let rec index_of ids channel i =
  if i = Array.length ids then -1
  else if Array.unsafe_get ids i = channel then i
  else index_of ids channel (i + 1)

let read t channel =
  match index_of t.ids channel 0 with
  | -1 -> 0
  | i ->
      let state = t.states.(i) in
      sample t state state.model

let attach t devices = Mote_machine.Devices.set_sensor devices (read t)

let radio_arrivals t ~from_cycle ~to_cycle =
  match t.cfg.radio with
  | Silent -> []
  | Poisson { per_kilocycle; payload_lo; payload_hi } ->
      if to_cycle <= from_cycle || per_kilocycle <= 0.0 then []
      else begin
        let rate_per_cycle = per_kilocycle /. 1000.0 in
        (* Exponential inter-arrival gaps over the window. *)
        let rec gen at acc =
          let gap = Stats.Dist.exponential t.radio_rng ~rate:rate_per_cycle in
          let at = at +. gap in
          if at >= float_of_int to_cycle then List.rev acc
          else
            let payload =
              payload_lo + Stats.Rng.int t.radio_rng (Stdlib.max 1 (payload_hi - payload_lo + 1))
            in
            gen at ((int_of_float at, payload) :: acc)
        in
        gen (float_of_int from_cycle) []
      end
