type t = Healthy | Degraded of string | Rejected of string

let default_min_samples = 8

let judge ?(min_samples = default_min_samples) ~converged ~sample_count () =
  if sample_count = 0 then Rejected "no samples survived collection"
  else if sample_count < min_samples then
    Rejected (Printf.sprintf "%d samples < floor %d" sample_count min_samples)
  else if not converged then Degraded "estimator hit its iteration cap"
  else Healthy

let degraded_above = 0.5
let rejected_above = 0.95

let apply_ci_width ~width verdict =
  if width > rejected_above then
    Rejected (Printf.sprintf "CI width %.2f > %.2f" width rejected_above)
  else
    match verdict with
    | Healthy when width > degraded_above ->
        Degraded (Printf.sprintf "CI width %.2f > %.2f" width degraded_above)
    | v -> v

let noise_ratio = 4.0

let apply_noise ~sigma ~noise verdict =
  if not (sigma > noise_ratio *. noise) then verdict
  else
    let reason = Printf.sprintf "noise %.1f > %gx timer noise %.1f" sigma noise_ratio noise in
    match verdict with
    | Healthy -> Degraded reason
    | Degraded r -> Degraded (r ^ "; " ^ reason)
    | Rejected _ -> verdict

let severity = function Healthy -> 0 | Degraded _ -> 1 | Rejected _ -> 2
let worst a b = if severity b > severity a then b else a
let is_rejected = function Rejected _ -> true | _ -> false
let is_healthy = function Healthy -> true | _ -> false

let to_string = function
  | Healthy -> "healthy"
  | Degraded r -> Printf.sprintf "degraded (%s)" r
  | Rejected r -> Printf.sprintf "rejected (%s)" r

let pp fmt v = Format.pp_print_string fmt (to_string v)
