type t = { p : Linalg.Matrix.t }

let validate m =
  let n = Linalg.Matrix.rows m in
  if Linalg.Matrix.cols m <> n then invalid_arg "Chain.create: matrix must be square";
  for i = 0 to n - 1 do
    let sum = ref 0.0 in
    for j = 0 to n - 1 do
      let v = m.(i).(j) in
      if v < -1e-12 then invalid_arg "Chain.create: negative probability";
      sum := !sum +. v
    done;
    if !sum > 1.0 +. 1e-9 then invalid_arg "Chain.create: row sum exceeds 1"
  done

let create m =
  validate m;
  { p = Linalg.Matrix.copy m }

let of_edges ~size edges =
  let m = Linalg.Matrix.make size size 0.0 in
  List.iter
    (fun (src, dst, prob) ->
      if src < 0 || src >= size || dst < 0 || dst >= size then
        invalid_arg "Chain.of_edges: state out of range";
      m.(src).(dst) <- m.(src).(dst) +. prob)
    edges;
  create m

let size t = Linalg.Matrix.rows t.p
let prob t i j = t.p.(i).(j)
let matrix t = Linalg.Matrix.copy t.p
let row t i = Array.copy t.p.(i)

let leak t i =
  let sum = Array.fold_left ( +. ) 0.0 t.p.(i) in
  Stdlib.max 0.0 (1.0 -. sum)

let successors t i =
  let out = ref [] in
  Array.iteri (fun j v -> if v > 0.0 then out := (j, v) :: !out) t.p.(i);
  List.rev !out

let step rng t i =
  let u = Stats.Rng.unit_float rng in
  let n = size t in
  let rec scan j acc =
    if j >= n then None
    else
      let acc = acc +. t.p.(i).(j) in
      if u < acc then Some j else scan (j + 1) acc
  in
  scan 0 0.0

let stationary ?(iterations = 10_000) ?(eps = 1e-12) t =
  let n = size t in
  if n = 0 then [||]
  else begin
    let v = ref (Array.make n (1.0 /. float_of_int n)) in
    let continue = ref true in
    let iter = ref 0 in
    while !continue && !iter < iterations do
      let next = Linalg.Matrix.vec_mat !v t.p in
      (* Damping makes periodic chains converge to their average cycle
         occupancy instead of oscillating. *)
      let damped = Array.mapi (fun i x -> (0.5 *. x) +. (0.5 *. !v.(i))) next in
      let delta =
        Array.mapi (fun i x -> abs_float (x -. !v.(i))) damped
        |> Array.fold_left Stdlib.max 0.0
      in
      v := damped;
      incr iter;
      if delta < eps then continue := false
    done;
    Linalg.Simplex.normalize !v
  end

let n_step t k =
  if k < 0 then invalid_arg "Chain.n_step: negative step count";
  let rec go acc k = if k = 0 then acc else go (Linalg.Matrix.mul acc t.p) (k - 1) in
  go (Linalg.Matrix.identity (size t)) k
