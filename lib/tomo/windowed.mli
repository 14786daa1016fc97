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
    {!Em.estimate} for at most 40 iterations, warm-started from the previous window's θ; σ is re-estimated in every
    window, each time starting from [sigma] (default: {!Em.estimate}'s).
    @raise Invalid_argument when samples are fewer than half a window. *)

val drifted : t -> bool
(** True when any window-to-window drift exceeds 0.15 — the "re-run the
    placement pass" signal. *)
