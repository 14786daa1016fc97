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

let leak t i =
  let sum = Array.fold_left ( +. ) 0.0 t.p.(i) in
  Stdlib.max 0.0 (1.0 -. sum)

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
