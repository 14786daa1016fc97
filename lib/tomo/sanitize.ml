(* Envelope slack in noise σ; MAD cut-off in robust σ, the robust σ's
   floor in cycles, and the fewest survivors the MAD stage runs on. *)
let envelope_slack = 6.0
let mad_k = 8.0
let mad_floor = 1.0
let mad_min_n = 4

type report = {
  total : int;
  kept : int;
  envelope_dropped : int;
  mad_dropped : int;
}

(* Linear-interpolated median on a private sorted copy. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    if n land 1 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))
  end

let mad xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let m = median xs in
    median (Array.map (fun x -> Float.abs (x -. m)) xs)
  end

(* 1.4826 makes MAD a consistent estimator of σ under normality. *)
let mad_sigma_factor = 1.4826

let run ?(min_cost = Float.neg_infinity) ?(max_cost = Float.infinity) ~sigma samples =
  let total = Array.length samples in
  let slack = envelope_slack *. Stdlib.max sigma 1.0 in
  let lo = min_cost -. slack and hi = max_cost +. slack in
  let in_envelope = Array.to_list samples |> List.filter (fun x -> x >= lo && x <= hi) in
  let envelope_dropped = total - List.length in_envelope in
  let survivors = Array.of_list in_envelope in
  (* The MAD stage is the fallback for when no model envelope exists.
     Genuine path costs are multi-modal — most windows share the modal
     path, so the MAD collapses to its floor and every legitimate long
     path would read as an "outlier".  With an envelope, feasibility is
     the model's call; without one, robust statistics are the only
     defense. *)
  let have_envelope = Float.is_finite min_cost || Float.is_finite max_cost in
  let kept, mad_dropped =
    if have_envelope || Array.length survivors < mad_min_n then (survivors, 0)
    else begin
      let m = median survivors in
      let scale = Stdlib.max (mad_sigma_factor *. mad survivors) mad_floor in
      let cut = mad_k *. scale in
      let keep = Array.to_list survivors |> List.filter (fun x -> Float.abs (x -. m) <= cut) in
      (Array.of_list keep, Array.length survivors - List.length keep)
    end
  in
  (kept, { total; kept = Array.length kept; envelope_dropped; mad_dropped })

let pp_report fmt r =
  Format.fprintf fmt "%d/%d kept (%d outside envelope, %d MAD outliers)" r.kept
    r.total r.envelope_dropped r.mad_dropped
