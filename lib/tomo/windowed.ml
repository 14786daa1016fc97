type window = { index : int; first_sample : int; theta : float array; drift : float }

type t = { windows : window list; max_drift : float }

let max_iters = 40

let estimate ?(window_size = 200) ?sigma paths ~samples =
  if window_size <= 0 then invalid_arg "Windowed.estimate: window size must be positive";
  let n = Array.length samples in
  if 2 * n < window_size then
    invalid_arg "Windowed.estimate: not enough samples for one window";
  (* Window boundaries: full windows, plus a tail if it is substantial —
     at least a quarter window, and never empty. *)
  let min_tail = Stdlib.max 1 (window_size / 4) in
  let starts = ref [] in
  let at = ref 0 in
  while !at + window_size <= n do
    starts := !at :: !starts;
    at := !at + window_size
  done;
  let starts = List.rev !starts in
  let boundaries =
    match List.rev starts with
    | [] -> [ (0, n) ]
    | last :: _ ->
        let tail = n - (last + window_size) in
        List.map
          (fun s -> (s, if s = last && tail < min_tail then n else s + window_size))
          starts
        @ if tail >= min_tail then [ (last + window_size, n) ] else []
  in
  let model = Paths.model paths in
  let prev = ref (Model.uniform_theta model) in
  let max_drift = ref 0.0 in
  let windows =
    List.mapi
      (fun index (s, finish) ->
        let chunk = Array.sub samples s (finish - s) in
        let r =
          Em.estimate ~max_iters ~init:!prev ?sigma ~record_trajectory:false paths
            ~samples:chunk
        in
        let drift =
          if index = 0 then 0.0
          else if Array.length r.Em.theta = 0 then 0.0
          else Stats.Metrics.max_abs_error r.Em.theta !prev
        in
        prev := r.Em.theta;
        if drift > !max_drift then max_drift := drift;
        { index; first_sample = s; theta = r.Em.theta; drift })
      boundaries
  in
  { windows; max_drift = !max_drift }

let drift_threshold = 0.15

let drifted t = t.max_drift > drift_threshold
