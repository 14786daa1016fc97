type plan = {
  current_samples : int;
  current_se : float;
  target_se : float;
  samples_needed : int;
}

let replicates = 40

let plan rng paths ~samples ~target_se =
  if Array.length samples = 0 then invalid_arg "Planner.plan: no samples";
  if target_se <= 0.0 then invalid_arg "Planner.plan: target must be positive";
  let point = (Em.estimate ~record_trajectory:false paths ~samples).Em.theta in
  let k = Array.length point in
  let n = Array.length samples in
  let current_se =
    if k = 0 then 0.0
    else begin
      (* Bootstrap standard error per parameter; keep the worst. *)
      let acc = Array.init k (fun _ -> Stats.Summary.create ()) in
      for _ = 1 to replicates do
        let resampled = Array.init n (fun _ -> samples.(Stats.Rng.int rng n)) in
        let r =
          Em.estimate ~max_iters:15 ~init:point ~record_trajectory:false paths
            ~samples:resampled
        in
        Array.iteri (fun j v -> Stats.Summary.add acc.(j) v) r.Em.theta
      done;
      Array.fold_left (fun worst s -> Stdlib.max worst (Stats.Summary.stddev s)) 0.0 acc
    end
  in
  let samples_needed =
    if current_se <= target_se then n
    else
      (* se ∝ 1/√n ⇒ n' = n (se/target)². *)
      int_of_float (ceil (float_of_int n *. ((current_se /. target_se) ** 2.0)))
  in
  { current_samples = n; current_se; target_se; samples_needed }

let pp fmt p =
  Format.fprintf fmt "n=%d se=%.4f target=%.4f -> need n=%d" p.current_samples
    p.current_se p.target_se p.samples_needed
