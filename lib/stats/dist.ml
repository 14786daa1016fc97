
let gaussian rng ~mu ~sigma =
  if sigma < 0.0 then invalid_arg "Dist.gaussian: negative sigma";
  (* Box–Muller; one draw per call keeps the stream position predictable. *)
  let u1 = 1.0 -. Rng.unit_float rng in
  let u2 = Rng.unit_float rng in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let exponential rng ~rate =
  if rate <= 0.0 then invalid_arg "Dist.exponential: rate must be positive";
  -.log (1.0 -. Rng.unit_float rng) /. rate

let gaussian_pdf ~mu ~sigma x =
  let z = (x -. mu) /. sigma in
  exp (-0.5 *. z *. z) /. (sigma *. sqrt (2.0 *. Float.pi))

let gaussian_log_pdf ~mu ~sigma x =
  let z = (x -. mu) /. sigma in
  (-0.5 *. z *. z) -. log sigma -. (0.5 *. log (2.0 *. Float.pi))

