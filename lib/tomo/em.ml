type result = {
  theta : float array;
  sigma : float;
  iterations : int;
  log_likelihood : float;
  converged : bool;
  trajectory : (float array * float) list;
  outlier_eps : float option;
}

(* The robust variant's contamination weight ε: its start, re-estimated
   every iteration within [1e-6, 0.5]. *)
let initial_eps = 0.05
let max_eps = 0.5

(* A window is the difference of two quantized timestamps, so the
   quantization error is triangular on (−res, res): variance (res²−1)/6 for
   integer cycle counts (zero when res = 1).  Jitter applies at both
   endpoints. *)
let default_sigma ~resolution ~jitter =
  let r = float_of_int resolution in
  Stdlib.max 0.1 (sqrt (((r *. r) -. 1.0) /. 6.0 +. (2.0 *. jitter *. jitter)))

let group_samples samples =
  let n = Array.length samples in
  let tbl = Hashtbl.create (Stdlib.max 16 n) in
  Array.iter
    (fun v -> Hashtbl.replace tbl v (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v)))
    samples;
  let grouped = Array.make (Hashtbl.length tbl) (0.0, 0.0) in
  let at = ref 0 in
  Hashtbl.iter
    (fun v c ->
      grouped.(!at) <- (v, float_of_int c);
      incr at)
    tbl;
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) grouped;
  grouped

let theta_bound = 1e-4

let clamp_theta p = Stdlib.max theta_bound (Stdlib.min (1.0 -. theta_bound) p)

let clamp_eps e = Stdlib.max 1e-6 (Stdlib.min max_eps e)

(* exp x underflows to exactly +0.0 below ≈ −745.14, so dropping a path
   whose log weight trails the per-value max by more than this changes no
   bit of any sum the reference dense E-step would have computed. *)
let log_threshold = 746.0

let sigma_floor = 0.1

let half_log_two_pi = 0.5 *. log (2.0 *. Float.pi)

(* Grouped samples as two flat arrays, so the per-value loops are plain
   [for] loops and their float accumulators stay unboxed. *)
let grouped_arrays samples =
  let grouped = group_samples samples in
  (Array.map fst grouped, Array.map snd grouped)

(* One EM iteration maps (θ, σ, ε) to (θ′, σ′, ε′) and reports the
   log-likelihood of its input; the exact kernel carries ε = 0 through
   unchanged. *)
type step = { theta' : float array; sigma' : float; eps' : float; ll : float }

(* The iterate → Δθ → trajectory → stop loop, written once for both
   optimized variants.  {!Dense} keeps its own copy on purpose: sharing
   the driver with the code it checks would let a driver bug pass the
   differential tests. *)
let drive ~max_iters ~tol ~record_trajectory ~theta ~sigma ~eps ~robust step =
  let theta = ref theta and sigma = ref sigma and eps = ref eps in
  let trajectory = ref [] in
  let iterations = ref 0 in
  let converged = ref false in
  let final_ll = ref neg_infinity in
  while (not !converged) && !iterations < max_iters do
    incr iterations;
    let r = step !theta !sigma !eps in
    (* max folded left from |Δε|, as [Stdlib.max] would. *)
    let delta = ref (abs_float (r.eps' -. !eps)) in
    for j = 0 to Array.length r.theta' - 1 do
      let d = abs_float (r.theta'.(j) -. !theta.(j)) in
      if not (!delta >= d) then delta := d
    done;
    theta := r.theta';
    sigma := r.sigma';
    eps := r.eps';
    final_ll := r.ll;
    if record_trajectory then trajectory := (Array.copy r.theta', r.ll) :: !trajectory;
    if !delta < tol then converged := true
  done;
  {
    theta = !theta;
    sigma = !sigma;
    iterations = !iterations;
    log_likelihood = !final_ll;
    converged = !converged;
    trajectory = List.rev !trajectory;
    outlier_eps = (if robust then Some !eps else None);
  }

(* M-step θ′: the expected taken fraction per parameter, clamped; a
   parameter no responsible path traverses keeps its value. *)
let m_step_theta theta ~taken ~either =
  Array.init (Array.length theta) (fun j ->
      if either.(j) <= 0.0 then theta.(j) else clamp_theta (taken.(j) /. either.(j)))

(* log θ and log (1−θ) exactly as [Paths.log_prior] derives them
   ([Stdlib.max 1e-12 p], written out so no float is boxed). *)
let fill_log_theta theta ~log_t ~log_f =
  for j = 0 to Array.length theta - 1 do
    let p = theta.(j) in
    let q = 1.0 -. p in
    log_t.(j) <- log (if 1e-12 >= p then 1e-12 else p);
    log_f.(j) <- log (if 1e-12 >= q then 1e-12 else q)
  done

(* Contamination-robust variant: the mixture gains one uniform component
   of weight ε whose support covers both the path-cost envelope and the
   observed sample range, so a sample no path could explain lands on the
   outlier component instead of producing a degenerate E-step.  σ is
   re-estimated over the inlier responsibility mass only, and ε is the
   outlier mass fraction, clamped.  This path makes no bit-exactness
   promise against {!Dense}; it runs only when the caller opts in, and
   the hex-float goldens in the tests pin its bits. *)
let robust_step ~estimate_sigma ~log_u paths ~values ~counts =
  let model = Paths.model paths in
  let k = Model.num_params model in
  let f = Paths.flat paths in
  let cost = f.Paths.sig_cost and mult = f.Paths.sig_weight in
  let toff = f.Paths.taken_off and tidx = f.Paths.taken_idx and tcnt = f.Paths.taken_cnt in
  let foff = f.Paths.nottaken_off and fidx = f.Paths.nottaken_idx
  and fcnt = f.Paths.nottaken_cnt in
  let ns = Array.length cost and nv = Array.length values in
  let n_total = Array.fold_left ( +. ) 0.0 counts in
  let lp = Array.make ns 0.0 and lw = Array.make ns 0.0 in
  let log_t = Array.make k 0.0 and log_f = Array.make k 0.0 in
  let taken_acc = Array.make k 0.0 and either_acc = Array.make k 0.0 in
  let tiny = 1e-12 in
  fun theta sg eps ->
    Model.check_theta model theta;
    fill_log_theta theta ~log_t ~log_f;
    Paths.signature_log_prior paths ~log_t ~log_f lp;
    let log_sigma = log sg in
    let log_in = log (Stdlib.max tiny (1.0 -. eps)) in
    let log_out = log eps +. log_u in
    Array.fill taken_acc 0 k 0.0;
    Array.fill either_acc 0 k 0.0;
    let sq_acc = ref 0.0 and inlier_mass = ref 0.0 and outlier_mass = ref 0.0 in
    let ll = ref 0.0 in
    for v = 0 to nv - 1 do
      let value = values.(v) and count = counts.(v) in
      let best = ref log_out in
      for s = 0 to ns - 1 do
        let d = value -. cost.(s) in
        let z = d /. sg in
        let w = log_in +. lp.(s) +. ((-0.5 *. z *. z) -. log_sigma -. half_log_two_pi) in
        lw.(s) <- w;
        if w > !best then best := w
      done;
      let best = !best in
      let z = ref (exp (log_out -. best)) in
      for s = 0 to ns - 1 do
        z := !z +. (mult.(s) *. exp (lw.(s) -. best))
      done;
      let lse = best +. log !z in
      ll := !ll +. (count *. lse);
      outlier_mass := !outlier_mass +. (count *. exp (log_out -. lse));
      for s = 0 to ns - 1 do
        (* One path's responsibility times the signature multiplicity:
           merged paths share identical branch counts by construction. *)
        let r = mult.(s) *. count *. exp (lw.(s) -. lse) in
        if r > 0.0 then begin
          for i = toff.(s) to toff.(s + 1) - 1 do
            let j = tidx.(i) in
            let rf = r *. tcnt.(i) in
            taken_acc.(j) <- taken_acc.(j) +. rf;
            either_acc.(j) <- either_acc.(j) +. rf
          done;
          for i = foff.(s) to foff.(s + 1) - 1 do
            let j = fidx.(i) in
            either_acc.(j) <- either_acc.(j) +. (r *. fcnt.(i))
          done;
          let d = value -. cost.(s) in
          sq_acc := !sq_acc +. (r *. d *. d);
          inlier_mass := !inlier_mass +. r
        end
      done
    done;
    {
      theta' = m_step_theta theta ~taken:taken_acc ~either:either_acc;
      sigma' =
        (if estimate_sigma then
           Stdlib.max sigma_floor (sqrt (!sq_acc /. Stdlib.max tiny !inlier_mass))
         else sg);
      eps' = clamp_eps (!outlier_mass /. n_total);
      ll = !ll;
    }

(* The exact kernel: priors, Gaussian terms and responsibilities once per
   signature; normalizer and M-step accumulation replayed in raw
   enumeration order ({!Paths.replay_normalizers},
   {!Paths.replay_accumulate}), so every sum rounds as in {!Dense}.
   Values are processed in blocks: the E-step terms of a whole block
   first, then the block's normalizers side by side (independent sums),
   then each value's responsibilities and M-step replay in value order. *)
let block = 8

let exact_step ~estimate_sigma paths ~values ~counts =
  let model = Paths.model paths in
  let k = Model.num_params model in
  let cost = (Paths.flat paths).Paths.sig_cost in
  let ns = Array.length cost and nv = Array.length values in
  let n_total = Array.fold_left ( +. ) 0.0 counts in
  (* Scratch reused across blocks and iterations: per-(value, signature)
     log weights and exp(lw − best) for one block, per-signature
     responsibilities and σ terms. *)
  let lp = Array.make ns 0.0 in
  let block = Stdlib.min block nv in
  let lw = Array.make (block * ns) 0.0 and expw = Array.make (block * ns) 0.0 in
  let best = Array.make block 0.0 in
  let resp = Array.make ns 0.0 and sq = Array.make ns 0.0 in
  let log_t = Array.make k 0.0 and log_f = Array.make k 0.0 in
  let taken_acc = Array.make k 0.0 and either_acc = Array.make k 0.0 in
  let rp = Paths.replay paths in
  let sums = Paths.replay_sums rp in
  let norms = Array.make block 0.0 in
  let tail_norms = Array.make (nv mod block) 0.0 in
  (* For the exp skip below: the largest branch count and the cost
     envelope. *)
  let f = Paths.flat paths in
  let cmax = ref 0.0 in
  Array.iter (fun c -> if c > !cmax then cmax := c) f.Paths.taken_cnt;
  Array.iter (fun c -> if c > !cmax then cmax := c) f.Paths.nottaken_cnt;
  let log_cmax = log !cmax in
  let cost_lo = Paths.min_cost paths and cost_hi = Paths.max_cost paths in
  fun theta sg eps ->
    Model.check_theta model theta;
    fill_log_theta theta ~log_t ~log_f;
    Paths.signature_log_prior paths ~log_t ~log_f lp;
    let log_sigma = log sg in
    Array.fill taken_acc 0 k 0.0;
    Array.fill either_acc 0 k 0.0;
    sums.Paths.sq <- 0.0;
    let ll = ref 0.0 in
    for b = 0 to (nv - 1) / block do
      let first = b * block in
      let norms = if first + block <= nv then norms else tail_norms in
      let rows = Array.length norms in
      for i = 0 to rows - 1 do
        let value = values.(first + i) and row = i * ns in
        let top = ref neg_infinity in
        for s = 0 to ns - 1 do
          let z = (value -. cost.(s)) /. sg in
          let w = lp.(s) +. ((-0.5 *. z *. z) -. log_sigma -. half_log_two_pi) in
          lw.(row + s) <- w;
          if w > !top then top := w
        done;
        let top = !top in
        best.(i) <- top;
        for s = 0 to ns - 1 do
          let w = lw.(row + s) in
          expw.(row + s) <- (if top -. w >= log_threshold then 0.0 else exp (w -. top))
        done
      done;
      Paths.replay_normalizers rp expw norms;
      for i = 0 to rows - 1 do
        let value = values.(first + i) and count = counts.(first + i) and row = i * ns in
        let lse = best.(i) +. log norms.(i) in
        ll := !ll +. (count *. lse);
        (* A responsibility r whose log is below [cut] cannot change an
           accumulator bit: r times the largest branch count is below the
           smallest half gap of the taken and either accumulators, and
           r·d² is below the σ sum's (d² at most the wider of the
           squared distances to the cheapest and dearest path).  The
           replay would skip it ({!Paths.skips}), so it is set to 0
           without its [exp].  The margin of 1 in log space dwarfs the
           rounding of every term; a 0 gap makes the cut −∞, and NaN
           skips nothing. *)
        let cut =
          if Paths.replay_gaps rp ~taken:taken_acc ~either:either_acc then begin
            let near = value -. cost_lo and far = value -. cost_hi in
            let d2 = if near *. near > far *. far then near *. near else far *. far in
            let by_count = log sums.Paths.gap_floor -. log_cmax in
            let by_sq = log sums.Paths.sq_gap -. log d2 in
            lse -. log count +. (if by_count < by_sq then by_count else by_sq) -. 1.0
          end
          else neg_infinity
        in
        for s = 0 to ns - 1 do
          let w = lw.(row + s) in
          let r = if expw.(row + s) = 0.0 || w < cut then 0.0 else count *. exp (w -. lse) in
          resp.(s) <- r;
          if r > 0.0 then begin
            let d = value -. cost.(s) in
            sq.(s) <- r *. d *. d
          end
        done;
        Paths.replay_accumulate rp ~threshold:0.0 ~resp ~sq ~taken:taken_acc
          ~either:either_acc
      done
    done;
    {
      theta' = m_step_theta theta ~taken:taken_acc ~either:either_acc;
      sigma' =
        (if estimate_sigma then Stdlib.max sigma_floor (sqrt (sums.Paths.sq /. n_total))
         else sg);
      eps' = eps;
      ll = !ll;
    }

let estimate ?(max_iters = 100) ?(tol = 1e-5) ?init ?(sigma = 2.0) ?(estimate_sigma = true)
    ?(record_trajectory = true) ?(robust = false) paths ~samples =
  if Array.length samples = 0 then invalid_arg "Em.estimate: no samples";
  let theta =
    match init with Some t -> Array.copy t | None -> Model.uniform_theta (Paths.model paths)
  in
  let sigma = Stdlib.max sigma_floor sigma in
  let values, counts = grouped_arrays samples in
  let drive = drive ~max_iters ~tol ~record_trajectory ~theta ~sigma in
  if not robust then drive ~eps:0.0 ~robust (exact_step ~estimate_sigma paths ~values ~counts)
  else begin
    (* Uniform support: the widest of the cost envelope and the sample
       range, padded so no observation sits on a density cliff. *)
    let pad = Stdlib.max (6.0 *. sigma) 1.0 in
    let lo = Stdlib.min (Paths.min_cost paths) values.(0) -. pad in
    let hi = Stdlib.max (Paths.max_cost paths) values.(Array.length values - 1) +. pad in
    let hi = if hi > lo then hi else lo +. 1.0 in
    let log_u = -.log (hi -. lo) in
    drive ~eps:initial_eps ~robust (robust_step ~estimate_sigma ~log_u paths ~values ~counts)
  end

(* The dense per-path reference the sparse kernels were derived from.  Kept
   as a library citizen (not test scaffolding) so the equivalence tests and
   the differential fuzzer exercise one and the same implementation.  Every
   fold below visits raw paths in enumeration order and guards on c > 0 —
   the exact semantics the optimized kernels replay bit-for-bit. *)
module Dense = struct
  let estimate ?(max_iters = 100) ?(tol = 1e-5) ?init ?(sigma = 2.0)
      ?(estimate_sigma = true) ?(record_trajectory = true)
      paths ~samples =
    if Array.length samples = 0 then invalid_arg "Em.Dense.estimate: no samples";
    let model = Paths.model paths in
    let k = Model.num_params model in
    let pth = Paths.paths paths in
    let np = Array.length pth in
    let grouped = group_samples samples in
    let n_total = Array.fold_left (fun acc (_, c) -> acc +. c) 0.0 grouped in
    let theta =
      ref (match init with Some t -> Array.copy t | None -> Model.uniform_theta model)
    in
    let sigma = ref (Stdlib.max sigma_floor sigma) in
    let trajectory = ref [] in
    let iterations = ref 0 in
    let converged = ref false in
    let final_ll = ref neg_infinity in
    let logw = Array.make np 0.0 in
    while (not !converged) && !iterations < max_iters do
      incr iterations;
      let log_prior = Paths.log_prior paths ~theta:!theta in
      let taken_acc = Array.make k 0.0 in
      let either_acc = Array.make k 0.0 in
      let sq_acc = ref 0.0 in
      let ll = ref 0.0 in
      Array.iter
        (fun (value, count) ->
          let best = ref neg_infinity in
          for p = 0 to np - 1 do
            let lw =
              log_prior.(p)
              +. Stats.Dist.gaussian_log_pdf ~mu:pth.(p).Paths.cost ~sigma:!sigma value
            in
            logw.(p) <- lw;
            if lw > !best then best := lw
          done;
          let z = ref 0.0 in
          for p = 0 to np - 1 do
            z := !z +. exp (logw.(p) -. !best)
          done;
          let lse = !best +. log !z in
          ll := !ll +. (count *. lse);
          for p = 0 to np - 1 do
            let r = count *. exp (logw.(p) -. lse) in
            if r > 0.0 then begin
              let path = pth.(p) in
              Array.iteri
                (fun j c ->
                  if c > 0 then begin
                    let fc = float_of_int c in
                    taken_acc.(j) <- taken_acc.(j) +. (r *. fc);
                    either_acc.(j) <- either_acc.(j) +. (r *. fc)
                  end)
                path.Paths.taken;
              Array.iteri
                (fun j c ->
                  if c > 0 then either_acc.(j) <- either_acc.(j) +. (r *. float_of_int c))
                path.Paths.nottaken;
              let d = value -. path.Paths.cost in
              sq_acc := !sq_acc +. (r *. d *. d)
            end
          done)
        grouped;
      let new_theta =
        Array.init k (fun j ->
            if either_acc.(j) <= 0.0 then !theta.(j)
            else clamp_theta (taken_acc.(j) /. either_acc.(j)))
      in
      let new_sigma =
        if estimate_sigma then Stdlib.max sigma_floor (sqrt (!sq_acc /. n_total))
        else !sigma
      in
      let delta =
        Array.mapi (fun j v -> abs_float (v -. !theta.(j))) new_theta
        |> Array.fold_left Stdlib.max 0.0
      in
      theta := new_theta;
      sigma := new_sigma;
      final_ll := !ll;
      if record_trajectory then trajectory := (Array.copy new_theta, !ll) :: !trajectory;
      if delta < tol then converged := true
    done;
    {
      theta = !theta;
      sigma = !sigma;
      iterations = !iterations;
      log_likelihood = !final_ll;
      converged = !converged;
      trajectory = List.rev !trajectory;
      outlier_eps = None;
    }
end
