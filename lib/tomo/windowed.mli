(** Windowed estimation for nonstationary phenomena.

    Sensor inputs drift (day/night cycles, battery decay, moving targets),
    and with them the branch probabilities.  Splitting the timing stream
    into consecutive windows and estimating each — warm-starting EM from
    the previous window — yields a θ trajectory; when it moves materially,
    the deployed code placement is stale and worth regenerating.  This is
    the "adaptive re-placement" extension the paper's model naturally
    supports, since probes stay in the binary after deployment. *)

type window = {
  index : int;
  first_sample : int;  (** Offset of the window in the sample stream. *)
  theta : float array;
  drift : float;
      (** Max |Δθ| against the previous window (0 for the first). *)
  converged : bool;
      (** Whether this window's EM met its tolerance before the
          iteration cap ({!Em.result.converged}). *)
}

type t = {
  windows : window list;  (** Oldest first. *)
  max_drift : float;
}

val estimate :
  ?window_size:int ->
  ?sigma:float ->
  Paths.t ->
  samples:float array ->
  t
(** Default window 200 samples; a trailing partial window is kept if it
    has at least a quarter of [window_size] samples (and at least one),
    otherwise folded into the previous one.  Each window runs
    the contamination-robust {!Em.estimate} ([~robust:true]) for at most
    40 iterations, warm-started from the previous window's θ; σ is
    re-estimated in every window, each time starting from [sigma]
    (default: {!Em.estimate}'s).

    The robust kernel is used because a drift check runs over the field
    stream: one corrupted timestamp (a window up to ±32768 cycles off)
    pushes the exact EM's σ̂ into the thousands, after which θ barely
    moves, every window runs to the cap over all raw paths, and the
    drift read is noise.  The robust model absorbs such windows into
    its uniform component ε and re-fits σ over the inliers, so each
    window's θ is the one its clean samples give and the fit converges
    in a few iterations.  What is left of the drift is each window's own
    sampling noise.
    @raise Invalid_argument when samples are fewer than half a window. *)

val drifted : t -> bool
(** True when any window-to-window drift exceeds 0.15 — the "re-run the
    placement pass" signal.  The threshold does not scale with how often
    a branch is reached: one seen about a hundred times per window moves
    by about 0.07 (one standard deviation) from window to window on a
    stationary stream, so such a stream can cross it. *)
