type interval = { lo : float; point : float; hi : float }

type t = { intervals : interval array; se : float array; samples : int }

let width i = i.hi -. i.lo

(* 95th percentile of the standard normal: the half width of a two-sided
   90% interval, in standard errors. *)
let z90 = 1.6449

let expit x = 1.0 /. (1.0 +. exp (-.x))

let on_clamp p = p <= Em.theta_bound || p >= 1.0 -. Em.theta_bound

(* Louis's observed information: per distinct value x seen n times,
   n (E[B|x] − Cov[S|x]), with S and B a signature's complete-data score
   and diagonal curvature, weighted by EM's responsibilities. *)
let observed_information paths ~samples ~point ~sigma =
  let k = Array.length point in
  let f = Paths.flat paths in
  let ns = Paths.num_signatures paths in
  let log_t = Array.map (fun p -> log (Stdlib.max 1e-12 p)) point in
  let log_f = Array.map (fun p -> log (Stdlib.max 1e-12 (1.0 -. p))) point in
  let lp = Array.make ns 0.0 in
  Paths.signature_log_prior paths ~log_t ~log_f lp;
  let score = Array.make_matrix ns k 0.0 and curv = Array.make_matrix ns k 0.0 in
  for s = 0 to ns - 1 do
    for i = f.Paths.taken_off.(s) to f.Paths.taken_off.(s + 1) - 1 do
      let j = f.Paths.taken_idx.(i) and c = f.Paths.taken_cnt.(i) in
      score.(s).(j) <- score.(s).(j) +. (c /. point.(j));
      curv.(s).(j) <- curv.(s).(j) +. (c /. (point.(j) *. point.(j)))
    done;
    for i = f.Paths.nottaken_off.(s) to f.Paths.nottaken_off.(s + 1) - 1 do
      let j = f.Paths.nottaken_idx.(i) and c = f.Paths.nottaken_cnt.(i) in
      let q = 1.0 -. point.(j) in
      score.(s).(j) <- score.(s).(j) -. (c /. q);
      curv.(s).(j) <- curv.(s).(j) +. (c /. (q *. q))
    done
  done;
  let info = Array.make_matrix k k 0.0 in
  let resp = Array.make ns 0.0 and mean = Array.make k 0.0 in
  Array.iter
    (fun (value, count) ->
      (* Responsibilities as EM's E-step weighs them; the Gaussian's
         normalizing constants cancel. *)
      let top = ref neg_infinity in
      for s = 0 to ns - 1 do
        let z = (value -. f.Paths.sig_cost.(s)) /. sigma in
        let w = log f.Paths.sig_weight.(s) +. lp.(s) -. (0.5 *. z *. z) in
        resp.(s) <- w;
        if w > !top then top := w
      done;
      let norm = ref 0.0 in
      for s = 0 to ns - 1 do
        resp.(s) <- exp (resp.(s) -. !top);
        norm := !norm +. resp.(s)
      done;
      Array.fill mean 0 k 0.0;
      for s = 0 to ns - 1 do
        resp.(s) <- resp.(s) /. !norm;
        for j = 0 to k - 1 do
          mean.(j) <- mean.(j) +. (resp.(s) *. score.(s).(j))
        done
      done;
      for s = 0 to ns - 1 do
        let w = count *. resp.(s) in
        if w > 0.0 then
          for a = 0 to k - 1 do
            let da = score.(s).(a) -. mean.(a) in
            info.(a).(a) <- info.(a).(a) +. (w *. curv.(s).(a));
            for b = 0 to k - 1 do
              info.(a).(b) <- info.(a).(b) -. (w *. da *. (score.(s).(b) -. mean.(b)))
            done
          done
      done)
    (Em.group_samples samples);
  info

let information paths ~samples ~point ~sigma =
  if Array.length samples = 0 then invalid_arg "Confidence.information: no samples";
  let k = Array.length point in
  let se =
    match Linalg.Solve.inverse (observed_information paths ~samples ~point ~sigma) with
    | inv -> Array.init k (fun j -> if inv.(j).(j) > 0.0 then sqrt inv.(j).(j) else infinity)
    | exception Linalg.Solve.Singular -> Array.make k infinity
  in
  let intervals =
    Array.init k (fun j ->
        let p = point.(j) in
        if not (Float.is_finite se.(j)) then { lo = 0.0; point = p; hi = 1.0 }
        else if on_clamp p then
          (* The logit half width scales with 1/(θ(1−θ)), thousands of
             standard errors on the clamp: read the interval on the θ
             scale there. *)
          let h = z90 *. se.(j) in
          { lo = Float.max 0.0 (p -. h); point = p; hi = Float.min 1.0 (p +. h) }
        else
          let l = log (p /. (1.0 -. p)) and h = z90 *. se.(j) /. (p *. (1.0 -. p)) in
          (* min/max only guard the rounding of expit (logit p) = p. *)
          { lo = Float.min p (expit (l -. h)); point = p; hi = Float.max p (expit (l +. h)) })
  in
  { intervals; se; samples = Array.length samples }

let samples_needed t ~target_se =
  if target_se <= 0.0 then invalid_arg "Confidence.samples_needed: target must be positive";
  let worst = Array.fold_left Float.max 0.0 t.se in
  if not (Float.is_finite worst) then None
  else if worst <= target_se then Some t.samples
  else
    (* se ∝ 1/√n ⇒ n' = n (se/target)². *)
    Some (int_of_float (ceil (float_of_int t.samples *. ((worst /. target_se) ** 2.0))))

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
