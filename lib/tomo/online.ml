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
     per-signature log weight, exp(lw − best), responsibility and the
     zero σ terms the replay adds (the online update fits no σ); the
     replay's own scratch and its one-row normalizer. *)
  log_t : float array;
  log_f : float array;
  lw : float array;
  expw : float array;
  resp : float array;
  no_sq : float array;
  replay : Paths.replay;
  norm : float array;
}

let create ?(decay = 0.999) ?(sigma = 1.0) paths =
  if not (decay > 0.0 && decay <= 1.0) then invalid_arg "Online.create: decay outside (0,1]";
  if not (sigma > 0.0 && sigma < Float.infinity) then
    invalid_arg "Online.create: sigma must be positive and finite";
  let k = Model.num_params (Paths.model paths) in
  let ns = Paths.num_signatures paths in
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
    replay = Paths.replay paths;
    norm = [| 0.0 |];
  }

let theta_at t j =
  if t.either_acc.(j) <= 1e-12 then 0.5
  else Stdlib.max Em.theta_bound (Stdlib.min (1.0 -. Em.theta_bound) (t.taken_acc.(j) /. t.either_acc.(j)))

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

(* The prior, Gaussian and both exps are evaluated once per signature
   (merged paths share them exactly); the normalizer and the sufficient-
   statistic updates are then replayed per raw path in enumeration order
   ({!Paths.replay_normalizers}, {!Paths.replay_accumulate}), so every sum
   rounds exactly as the per-path reference {!Dense} does.  An [exp] whose
   result is provably 0.0, or dropped by the replay's threshold, is not
   evaluated. *)
let observe t value =
  let cost = (Paths.flat t.paths).Paths.sig_cost in
  let ns = Array.length cost in
  (* log θ exactly as [Paths.log_prior] derives it. *)
  for j = 0 to Array.length t.log_t - 1 do
    let p = theta_at t j in
    t.log_t.(j) <- log (Stdlib.max 1e-12 p);
    t.log_f.(j) <- log (Stdlib.max 1e-12 (1.0 -. p))
  done;
  Paths.signature_log_prior t.paths ~log_t:t.log_t ~log_f:t.log_f t.lw;
  let best = ref neg_infinity in
  for s = 0 to ns - 1 do
    let z = (value -. cost.(s)) /. t.sigma in
    let w = t.lw.(s) +. ((-0.5 *. z *. z) -. t.log_sigma -. half_log_two_pi) in
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
  done;
  decay_all t;
  Paths.replay_accumulate t.replay ~threshold:1e-12 ~resp:t.resp ~sq:t.no_sq
    ~taken:t.taken_acc ~either:t.either_acc;
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
