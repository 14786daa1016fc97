exception Singular

(* LU decomposition with partial pivoting, in place on a copy.
   Returns (lu, perm). *)
let lu_decompose a =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then invalid_arg "Solve: matrix must be square";
  let lu = Matrix.copy a in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    (* Pivot selection. *)
    let pivot = ref k in
    for i = k + 1 to n - 1 do
      if abs_float lu.(i).(k) > abs_float lu.(!pivot).(k) then pivot := i
    done;
    if !pivot <> k then begin
      let tmp = lu.(k) in
      lu.(k) <- lu.(!pivot);
      lu.(!pivot) <- tmp;
      let tp = perm.(k) in
      perm.(k) <- perm.(!pivot);
      perm.(!pivot) <- tp
    end;
    if abs_float lu.(k).(k) < 1e-12 then raise Singular;
    for i = k + 1 to n - 1 do
      let factor = lu.(i).(k) /. lu.(k).(k) in
      lu.(i).(k) <- factor;
      for j = k + 1 to n - 1 do
        lu.(i).(j) <- lu.(i).(j) -. (factor *. lu.(k).(j))
      done
    done
  done;
  (lu, perm)

let back_substitute lu perm b =
  let n = Array.length b in
  let x = Array.init n (fun i -> b.(perm.(i))) in
  (* Forward: L y = P b (unit diagonal). *)
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      x.(i) <- x.(i) -. (lu.(i).(j) *. x.(j))
    done
  done;
  (* Backward: U x = y. *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (lu.(i).(j) *. x.(j))
    done;
    x.(i) <- x.(i) /. lu.(i).(i)
  done;
  x

let lu_solve a b =
  if Matrix.rows a <> Array.length b then invalid_arg "Solve.lu_solve: size mismatch";
  let lu, perm = lu_decompose a in
  back_substitute lu perm b

let solve_many a b =
  let lu, perm = lu_decompose a in
  let cols_b = Matrix.cols b in
  let n = Matrix.rows b in
  let out = Matrix.make n cols_b 0.0 in
  for j = 0 to cols_b - 1 do
    let col = Array.init n (fun i -> b.(i).(j)) in
    let x = back_substitute lu perm col in
    Array.iteri (fun i v -> out.(i).(j) <- v) x
  done;
  out

let inverse a = solve_many a (Matrix.identity (Matrix.rows a))
