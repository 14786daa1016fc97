type probe_record = { pc : int; cycles : int; value : int }

type t = {
  timer_resolution : int;
  timer_jitter : float;
  rng : Stats.Rng.t;
  mutable sensor : int -> int;
  radio_rx_q : int Queue.t;
  mutable tx_log : int list; (* newest first *)
  mutable tx_count : int; (* length of tx_log *)
  mutable leds : int;
  mutable led_writes : int;
  mutable probes : probe_record list; (* newest first *)
  counters : (int, int) Hashtbl.t;
}

let create ?(timer_resolution = 1) ?(timer_jitter = 0.0) ?rng () =
  if timer_resolution <= 0 then invalid_arg "Devices.create: resolution must be positive";
  if not (timer_jitter >= 0.0 && timer_jitter < Float.infinity) then
    invalid_arg "Devices.create: jitter must be finite and non-negative";
  let rng = match rng with Some r -> r | None -> Stats.Rng.create 7 in
  {
    timer_resolution;
    timer_jitter;
    rng;
    sensor = (fun _ -> 0);
    radio_rx_q = Queue.create ();
    tx_log = [];
    tx_count = 0;
    leds = 0;
    led_writes = 0;
    probes = [];
    counters = Hashtbl.create 64;
  }

let timer_resolution t = t.timer_resolution

let read_timer t ~cycles =
  let noisy =
    if t.timer_jitter = 0.0 then float_of_int cycles
    else Stats.Dist.gaussian t.rng ~mu:(float_of_int cycles) ~sigma:t.timer_jitter
  in
  let ticks = int_of_float (floor (noisy /. float_of_int t.timer_resolution)) in
  Stdlib.max 0 ticks

let set_sensor t f = t.sensor <- f
let read_sensor t ~channel = t.sensor channel

let radio_push_rx t v = Queue.push v t.radio_rx_q

let radio_rx t = if Queue.is_empty t.radio_rx_q then 0 else Queue.take t.radio_rx_q

let radio_rx_pending t = Queue.length t.radio_rx_q

let radio_tx t v =
  t.tx_log <- v :: t.tx_log;
  t.tx_count <- t.tx_count + 1

let tx_log t = List.rev t.tx_log
let tx_count t = t.tx_count

let tx_since t n =
  let rec newest k log acc =
    match log with
    | v :: rest when k > 0 -> newest (k - 1) rest (v :: acc)
    | _ -> acc
  in
  newest (t.tx_count - n) t.tx_log []

let set_leds t v =
  t.leds <- v;
  t.led_writes <- t.led_writes + 1

let leds t = t.leds
let led_writes t = t.led_writes

let probe t ~pc ~cycles ~value = t.probes <- { pc; cycles; value } :: t.probes

let probe_log t = List.rev t.probes

let bump_counter t id =
  let current = Option.value ~default:0 (Hashtbl.find_opt t.counters id) in
  Hashtbl.replace t.counters id (current + 1)

let counter t id = Option.value ~default:0 (Hashtbl.find_opt t.counters id)

let counters t =
  Hashtbl.fold (fun id v acc -> if v <> 0 then (id, v) :: acc else acc) t.counters []
  |> List.sort compare
