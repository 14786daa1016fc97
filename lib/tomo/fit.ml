type t = { total_variation : float; unexplained_mass : float; truncated : bool }

let check ?(sigma = 1.0) paths ~theta ~samples =
  if Array.length samples = 0 then invalid_arg "Fit.check: no samples";
  let pth = Paths.paths paths in
  let lp = Paths.log_prior paths ~theta in
  (* Renormalize over the enumerated set. *)
  let weights = Array.map exp lp in
  let mass = Array.fold_left ( +. ) 0.0 weights in
  let weights = Array.map (fun w -> w /. mass) weights in
  (* Bin both distributions on integer-cycle bins spanning data and model. *)
  let lo =
    Stdlib.min (Paths.min_cost paths) (Array.fold_left Stdlib.min infinity samples)
  in
  let hi =
    Stdlib.max (Paths.max_cost paths) (Array.fold_left Stdlib.max neg_infinity samples)
  in
  let lo = floor (lo -. (3.0 *. sigma)) and hi = ceil (hi +. (3.0 *. sigma)) in
  let bins = Stdlib.max 1 (int_of_float (hi -. lo) + 1) in
  (* Both distributions are smoothed by the same Gaussian kernel, so a
     perfectly-fitting mixture gives TV ≈ 0 even for exact (noise-free)
     timings. *)
  let spread buf center weight =
    let b_lo = Stdlib.max 0 (int_of_float (center -. (4.0 *. sigma) -. lo)) in
    let b_hi = Stdlib.min (bins - 1) (int_of_float (center +. (4.0 *. sigma) -. lo)) in
    let total = ref 0.0 in
    let local = Array.make (Stdlib.max 1 (b_hi - b_lo + 1)) 0.0 in
    for b = b_lo to b_hi do
      let x = lo +. float_of_int b in
      let d = Stats.Dist.gaussian_pdf ~mu:center ~sigma x in
      local.(b - b_lo) <- d;
      total := !total +. d
    done;
    if !total > 0.0 then
      for b = b_lo to b_hi do
        buf.(b) <- buf.(b) +. (weight *. local.(b - b_lo) /. !total)
      done
  in
  let observed = Array.make bins 0.0 in
  let n = float_of_int (Array.length samples) in
  Array.iter (fun s -> spread observed s (1.0 /. n)) samples;
  let predicted = Array.make bins 0.0 in
  Array.iteri
    (fun i path -> if weights.(i) > 0.0 then spread predicted path.Paths.cost weights.(i))
    pth;
  let tv = ref 0.0 in
  for b = 0 to bins - 1 do
    tv := !tv +. abs_float (observed.(b) -. predicted.(b))
  done;
  let unexplained =
    Array.fold_left
      (fun acc s ->
        let near =
          Array.exists (fun p -> abs_float (s -. p.Paths.cost) <= 3.0 *. sigma) pth
        in
        if near then acc else acc +. (1.0 /. n))
      0.0 samples
  in
  {
    total_variation = 0.5 *. !tv;
    unexplained_mass = unexplained;
    truncated = Paths.truncated paths;
  }

let tv_threshold = 0.15
let mass_threshold = 0.02

let acceptable t =
  t.total_variation <= tv_threshold && t.unexplained_mass <= mass_threshold

let pp fmt t =
  Format.fprintf fmt "TV=%.3f unexplained=%.1f%%%s" t.total_variation
    (100.0 *. t.unexplained_mass)
    (if t.truncated then " (paths truncated)" else "")
