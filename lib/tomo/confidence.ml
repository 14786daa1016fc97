type interval = { lo : float; point : float; hi : float }

type t = { intervals : interval array; replicates : int }

let width i = i.hi -. i.lo

let confidence = 0.9
let max_iters = 15

let bootstrap ?(replicates = 50) rng paths ~samples ~point ~sigma =
  if Array.length samples = 0 then invalid_arg "Confidence.bootstrap: no samples";
  if replicates < 2 then invalid_arg "Confidence.bootstrap: need at least 2 replicates";
  let n = Array.length samples in
  let k = Array.length point in
  let estimates = Array.make_matrix replicates k 0.0 in
  for b = 0 to replicates - 1 do
    let resampled = Array.init n (fun _ -> samples.(Stats.Rng.int rng n)) in
    let r =
      Em.estimate ~max_iters ~init:point ~sigma ~record_trajectory:false paths
        ~samples:resampled
    in
    Array.blit r.Em.theta 0 estimates.(b) 0 k
  done;
  let alpha = (1.0 -. confidence) /. 2.0 in
  (* Replicates warm-started from an unconverged point all keep drifting
     the same way, so their percentiles can miss the point altogether.
     Their spread is taken around their own median and placed on the
     point: the median lies between the two percentiles, so the point lies
     in its interval. *)
  let intervals =
    Array.init k (fun j ->
        let column = Array.init replicates (fun b -> estimates.(b).(j)) in
        let centre = Stats.Summary.quantile column 0.5 in
        let p = point.(j) in
        {
          lo = Float.max 0.0 (p +. (Stats.Summary.quantile column alpha -. centre));
          point = p;
          hi = Float.min 1.0 (p +. (Stats.Summary.quantile column (1.0 -. alpha) -. centre));
        })
  in
  { intervals; replicates }

let contains t k v =
  let i = t.intervals.(k) in
  i.lo <= v && v <= i.hi

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun k i ->
      Format.fprintf fmt "theta[%d] = %.3f  [%.3f, %.3f]@," k i.point i.lo i.hi)
    t.intervals;
  Format.fprintf fmt "@]"
