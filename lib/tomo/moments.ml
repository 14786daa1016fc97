type result = { theta : float array; iterations : int; objective : float; converged : bool }

let clamp p = Stdlib.max 1e-3 (Stdlib.min (1.0 -. 1e-3) p)

let max_iters = 400
let tol = 1e-9
let learning_rate = 0.15
let variance_weight = 0.3

let estimate ?(noise_sigma = 0.0) model ~samples =
  if Array.length samples = 0 then invalid_arg "Moments.estimate: no samples";
  let summary = Stats.Summary.of_array samples in
  let sample_mean = Stats.Summary.mean summary in
  let sample_var =
    Stdlib.max 0.0 (Stats.Summary.variance summary -. (noise_sigma *. noise_sigma))
  in
  let k = Model.num_params model in
  let mean_scale = Stdlib.max 1.0 (sample_mean *. sample_mean) in
  let var_scale = Stdlib.max 1.0 (sample_var *. sample_var) in
  let objective theta =
    let dm = Model.mean_time model ~theta -. sample_mean in
    let dv = Model.variance_time model ~theta -. sample_var in
    (dm *. dm /. mean_scale) +. (variance_weight *. dv *. dv /. var_scale)
  in
  let theta = ref (Model.uniform_theta model) in
  let lr = ref learning_rate in
  let best = ref (objective !theta) in
  let iterations = ref 0 in
  let converged = ref false in
  let h = 1e-4 in
  while (not !converged) && !iterations < max_iters do
    incr iterations;
    (* Central-difference gradient. *)
    let grad =
      Array.init k (fun j ->
          let up = Array.copy !theta and dn = Array.copy !theta in
          up.(j) <- clamp (up.(j) +. h);
          dn.(j) <- clamp (dn.(j) -. h);
          (objective up -. objective dn) /. (up.(j) -. dn.(j)))
    in
    let gnorm = sqrt (Array.fold_left (fun acc g -> acc +. (g *. g)) 0.0 grad) in
    if gnorm < 1e-12 then converged := true
    else begin
      let candidate =
        Array.mapi (fun j p -> clamp (p -. (!lr *. grad.(j) /. gnorm))) !theta
      in
      let value = objective candidate in
      if value < !best then begin
        if !best -. value < tol then converged := true;
        theta := candidate;
        best := value
      end
      else begin
        lr := !lr /. 2.0;
        if !lr < 1e-6 then converged := true
      end
    end
  done;
  { theta = !theta; iterations = !iterations; objective = !best; converged = !converged }
