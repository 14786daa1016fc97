type t = {
  paths : Paths.t;
  decay : float;
  sigma : float;
  log_sigma : float;
  taken_acc : float array;
  either_acc : float array;
  mutable weight : float;
  mutable count : int;
  (* Scratch reused across observations: per-parameter log θ / log (1−θ),
     per-signature log weight, exp(lw − best), responsibility (all +0.0
     between observations) and the zero σ terms the replay adds (the
     online update fits no σ); the band's signatures; the replay's own
     scratch and its one-row normalizer. *)
  log_t : float array;
  log_f : float array;
  lw : float array;
  expw : float array;
  resp : float array;
  no_sq : float array;
  band : int array;
  replay : Paths.replay;
  norm : float array;
  (* [band_paths.(i)]: the raw paths of the first [i] signatures in
     {!Paths.cost_order}; [full_cost]: weighing every signature, in the
     units of [signature_cost] below. *)
  band_paths : int array;
  full_cost : int;
}

(* Costs in units of one raw-path term of the full normalizer: weighing
   a signature (prior, Gaussian, two [exp]s at most), a live raw path of
   the band's normalizer walk, and a band's fixed set-up (its binary
   searches and [sqrt]).  They only decide which of two equal-bit loops
   runs. *)
let signature_cost = 16
let walk_cost = 3
let band_setup_cost = 40

let create ?(decay = 0.999) ?(sigma = 1.0) paths =
  if not (decay > 0.0 && decay <= 1.0) then invalid_arg "Online.create: decay outside (0,1]";
  if not (sigma > 0.0 && sigma < Float.infinity) then
    invalid_arg "Online.create: sigma must be positive and finite";
  let k = Model.num_params (Paths.model paths) in
  let ns = Paths.num_signatures paths in
  let weight = (Paths.flat paths).Paths.sig_weight and order = Paths.cost_order paths in
  let band_paths = Array.make (ns + 1) 0 in
  for i = 0 to ns - 1 do
    band_paths.(i + 1) <- band_paths.(i) + int_of_float weight.(order.(i))
  done;
  {
    paths;
    decay;
    sigma;
    log_sigma = log sigma;
    taken_acc = Array.make k 0.0;
    either_acc = Array.make k 0.0;
    weight = 0.0;
    count = 0;
    log_t = Array.make k 0.0;
    log_f = Array.make k 0.0;
    lw = Array.make ns 0.0;
    expw = Array.make ns 0.0;
    resp = Array.make ns 0.0;
    no_sq = Array.make ns 0.0;
    band = Array.make ns 0;
    replay = Paths.replay paths;
    norm = [| 0.0 |];
    band_paths;
    full_cost = (signature_cost * ns) + band_paths.(ns);
  }

(* θ_j from the sufficient statistics, clamped to [Em.theta_bound, 1 −
   Em.theta_bound] as [Stdlib.max]/[Stdlib.min] would (written out so no
   float is boxed). *)
let[@inline] theta_at t j =
  let either = t.either_acc.(j) in
  if either <= 1e-12 then 0.5
  else begin
    let hi = 1.0 -. Em.theta_bound and r = t.taken_acc.(j) /. either in
    let r = if hi <= r then hi else r in
    if Em.theta_bound >= r then Em.theta_bound else r
  end

let theta t = Array.init (Array.length t.taken_acc) (theta_at t)

let half_log_two_pi = 0.5 *. log (2.0 *. Float.pi)

(* exp x underflows to exactly +0.0 below ≈ −745.14 (as in {!Em}), so a
   signature trailing the best log weight by this much gets 0.0 without
   its [exp]. *)
let log_threshold = 746.0

(* A responsibility whose log lies below this is under 1e-12 / e, which
   the replay's 1e-12 threshold drops anyway; the margin of 1 in log
   space dwarfs the rounding of exp. *)
let log_resp_cut = log 1e-12 -. 1.0

(* Decay the sufficient statistics ahead of one observation's update. *)
let decay_all t =
  for j = 0 to Array.length t.taken_acc - 1 do
    t.taken_acc.(j) <- t.taken_acc.(j) *. t.decay;
    t.either_acc.(j) <- t.either_acc.(j) *. t.decay
  done;
  t.weight <- (t.weight *. t.decay) +. 1.0

(* The Gaussian log term of a signature of cost [c]; every log prior is
   ≤ 0, so it bounds the signature's log weight from above. *)
let[@inline] log_gauss t value c =
  let z = (value -. c) /. t.sigma in
  (-0.5 *. z *. z) -. t.log_sigma -. half_log_two_pi

(* Every signature, as the per-path reference weighs them: the prior,
   Gaussian and both exps once per signature, then the normalizer over
   every raw path ({!Paths.replay_normalizers}).  An [exp] whose result
   is provably 0.0, or dropped by the replay's threshold, is not
   evaluated. *)
let weigh_all t value =
  let cost = (Paths.flat t.paths).Paths.sig_cost in
  let ns = Array.length cost in
  Paths.signature_log_prior t.paths ~log_t:t.log_t ~log_f:t.log_f t.lw;
  let best = ref neg_infinity in
  for s = 0 to ns - 1 do
    let w = t.lw.(s) +. log_gauss t value cost.(s) in
    t.lw.(s) <- w;
    if w > !best then best := w
  done;
  let best = !best in
  for s = 0 to ns - 1 do
    let w = t.lw.(s) in
    t.expw.(s) <- (if best -. w >= log_threshold then 0.0 else exp (w -. best))
  done;
  Paths.replay_normalizers t.replay t.expw t.norm;
  let lse = best +. log t.norm.(0) in
  for s = 0 to ns - 1 do
    let d = t.lw.(s) -. lse in
    t.resp.(s) <- (if d < log_resp_cut then 0.0 else exp d)
  done

(* A signature whose Gaussian bound trails the best log weight found so
   far by more than this trails the final best by more than
   [log_threshold] (the best only grows, and rounding is monotone): its
   [exp] is 0.0 and its responsibility under the cut.  The margin of 1
   keeps the pre-walk estimate of the band, which rounds through a
   [sqrt], on the safe side. *)
let reach = log_threshold +. 1.0

(* The first position in cost order whose cost is [>= x] ([strict]:
   [> x]). *)
let[@inline] search (cost : float array) order ~strict x =
  let lo = ref 0 and hi = ref (Array.length order) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = cost.(order.(mid)) in
    if c < x || (strict && c = x) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Whether position [l] of the cost order lies no farther from [value]
   than position [r], either of which may be off the ends. *)
let nearer_left (cost : float array) order value l r =
  r >= Array.length order
  || (l >= 0 && value -. cost.(order.(l)) <= cost.(order.(r)) -. value)

(* The band: only the signatures within reach of [value], walked outward
   from the nearest cost, nearer side first.  A signature's Gaussian
   bound shrinks as its cost moves away, so the first one out of reach
   puts every later one out of reach too, and the walk stops there.
   Every signature left out would have had exp 0.0 and responsibility
   0.0, and the normalizer walks only the live signatures' raw paths in
   raw order ({!Paths.replay_live_normalizer}), so the bits are those of
   {!weigh_all}.  Returns the number of live signatures, listed at the
   head of [t.band] with their responsibilities set; or −1, having set
   no responsibility, when the band would cost more than {!weigh_all}.
   That cost is judged before the walk, from the signatures within reach
   of the nearest signature's weight (a lower bound on the best): a
   superset of those the walk visits. *)
let weigh_band t value =
  let cost = (Paths.flat t.paths).Paths.sig_cost and order = Paths.cost_order t.paths in
  let ns = Array.length order and lw = t.lw and band = t.band in
  let above = search cost order ~strict:false value in
  let near = if nearer_left cost order value (above - 1) above then above - 1 else above in
  let s0 = order.(near) in
  Paths.signature_log_prior_at t.paths ~log_t:t.log_t ~log_f:t.log_f lw s0;
  let w0 = lw.(s0) +. log_gauss t value cost.(s0) in
  (* Every signature within reach of w0 lies within [radius] of [value]. *)
  let radius = t.sigma *. sqrt (2.0 *. (reach -. w0 -. t.log_sigma -. half_log_two_pi)) in
  let lo = search cost order ~strict:false (value -. radius) in
  let hi = search cost order ~strict:true (value +. radius) in
  let band_cost =
    band_setup_cost + (signature_cost * (hi - lo))
    + (walk_cost * (t.band_paths.(hi) - t.band_paths.(lo)))
  in
  if not (band_cost < t.full_cost) then -1
  else begin
    lw.(s0) <- w0;
    band.(0) <- s0;
    let n = ref 1 and best = ref w0 in
    let l = ref (near - 1) and r = ref (near + 1) in
    let walking = ref true in
    while !walking && (!l >= 0 || !r < ns) do
      let left = nearer_left cost order value !l !r in
      let s = order.(if left then !l else !r) in
      let g = log_gauss t value cost.(s) in
      if !best -. g > reach then walking := false
      else begin
        Paths.signature_log_prior_at t.paths ~log_t:t.log_t ~log_f:t.log_f lw s;
        let w = lw.(s) +. g in
        lw.(s) <- w;
        if w > !best then best := w;
        band.(!n) <- s;
        incr n;
        if left then decr l else incr r
      end
    done;
    (* Keep the signatures whose exp is not 0.0, in place. *)
    let best = !best and live = ref 0 in
    for i = 0 to !n - 1 do
      let s = band.(i) in
      let w = lw.(s) in
      if best -. w < log_threshold then begin
        t.expw.(s) <- exp (w -. best);
        band.(!live) <- s;
        incr live
      end
    done;
    let live = !live in
    let lse = best +. log (Paths.replay_live_normalizer t.replay t.expw ~live:band live) in
    for i = 0 to live - 1 do
      let s = band.(i) in
      let d = lw.(s) -. lse in
      t.resp.(s) <- (if d < log_resp_cut then 0.0 else exp d)
    done;
    live
  end

(* The weights come from the band when it is cheaper, else from every
   signature; either way the sufficient-statistic updates are replayed
   per raw path in enumeration order ({!Paths.replay_accumulate}), so
   every sum rounds exactly as the per-path reference {!Dense} does. *)
let observe t value =
  (* log θ exactly as [Paths.log_prior] derives it ([Stdlib.max 1e-12 p],
     written out). *)
  for j = 0 to Array.length t.log_t - 1 do
    let p = theta_at t j in
    let q = 1.0 -. p in
    t.log_t.(j) <- log (if 1e-12 >= p then 1e-12 else p);
    t.log_f.(j) <- log (if 1e-12 >= q then 1e-12 else q)
  done;
  let live =
    if Float.is_finite value && t.full_cost > band_setup_cost + signature_cost then
      weigh_band t value
    else -1
  in
  if live < 0 then weigh_all t value;
  decay_all t;
  Paths.replay_accumulate t.replay ~threshold:1e-12 ~resp:t.resp ~sq:t.no_sq
    ~taken:t.taken_acc ~either:t.either_acc;
  (* Leave every responsibility +0.0 for the next band. *)
  if live < 0 then Array.fill t.resp 0 (Array.length t.resp) 0.0
  else
    for i = 0 to live - 1 do
      t.resp.(t.band.(i)) <- 0.0
    done;
  t.count <- t.count + 1

let observe_all t samples = Array.iter (observe t) samples

let observations t = t.count

let effective_weight t = t.weight

(* The per-raw-path update the signature kernel was derived from, kept so
   the equivalence tests and the differential fuzzer check one and the
   same reference.  Allocates O(paths) per observation. *)
module Dense = struct
  let observe t value =
    let pth = Paths.paths t.paths in
    let np = Array.length pth in
    let log_prior = Paths.log_prior t.paths ~theta:(theta t) in
    let logw = Array.make np 0.0 in
    let best = ref neg_infinity in
    for p = 0 to np - 1 do
      let lw =
        log_prior.(p) +. Stats.Dist.gaussian_log_pdf ~mu:pth.(p).Paths.cost ~sigma:t.sigma value
      in
      logw.(p) <- lw;
      if lw > !best then best := lw
    done;
    let z = ref 0.0 in
    for p = 0 to np - 1 do
      z := !z +. exp (logw.(p) -. !best)
    done;
    let lse = !best +. log !z in
    decay_all t;
    for p = 0 to np - 1 do
      let r = exp (logw.(p) -. lse) in
      if r > 1e-12 then begin
        let path = pth.(p) in
        Array.iteri
          (fun j c ->
            if c > 0 then begin
              let fc = r *. float_of_int c in
              t.taken_acc.(j) <- t.taken_acc.(j) +. fc;
              t.either_acc.(j) <- t.either_acc.(j) +. fc
            end)
          path.Paths.taken;
        Array.iteri
          (fun j c ->
            if c > 0 then t.either_acc.(j) <- t.either_acc.(j) +. (r *. float_of_int c))
          path.Paths.nottaken
      end
    done;
    t.count <- t.count + 1
end
