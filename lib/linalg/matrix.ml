type t = float array array

let make r c v =
  if r < 0 || c < 0 then invalid_arg "Matrix.make: negative size";
  Array.init r (fun _ -> Array.make c v)

let identity n =
  Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0))

let of_rows rows =
  let r = Array.length rows in
  if r = 0 then [||]
  else begin
    let c = Array.length rows.(0) in
    Array.iter
      (fun row -> if Array.length row <> c then invalid_arg "Matrix.of_rows: ragged rows")
      rows;
    Array.map Array.copy rows
  end

let rows m = Array.length m
let cols m = if Array.length m = 0 then 0 else Array.length m.(0)
let copy m = Array.map Array.copy m

let mul a b =
  if cols a <> rows b then invalid_arg "Matrix.mul: inner dimensions differ";
  let n = rows a and m = cols b and k = cols a in
  Array.init n (fun i ->
      Array.init m (fun j ->
          let acc = ref 0.0 in
          for t = 0 to k - 1 do
            acc := !acc +. (a.(i).(t) *. b.(t).(j))
          done;
          !acc))

let sub a b =
  if rows a <> rows b || cols a <> cols b then invalid_arg "Matrix: shape mismatch";
  Array.mapi (fun i row -> Array.mapi (fun j x -> x -. b.(i).(j)) row) a

let mat_vec m v =
  if cols m <> Array.length v then invalid_arg "Matrix.mat_vec: size mismatch";
  Array.map
    (fun row ->
      let acc = ref 0.0 in
      Array.iteri (fun j x -> acc := !acc +. (x *. v.(j))) row;
      !acc)
    m

let max_abs m =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc x -> Stdlib.max acc (abs_float x)) acc row)
    0.0 m

let equal ?(eps = 1e-9) a b =
  rows a = rows b && cols a = cols b && max_abs (sub a b) <= eps
