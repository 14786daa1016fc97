let check a b name =
  if Array.length a <> Array.length b then invalid_arg (name ^ ": length mismatch");
  if Array.length a = 0 then invalid_arg (name ^ ": empty input")

let mae a b =
  check a b "Metrics.mae";
  let sum = ref 0.0 in
  Array.iteri (fun i x -> sum := !sum +. abs_float (x -. b.(i))) a;
  !sum /. float_of_int (Array.length a)

let max_abs_error a b =
  check a b "Metrics.max_abs_error";
  let m = ref 0.0 in
  Array.iteri (fun i x -> m := Stdlib.max !m (abs_float (x -. b.(i)))) a;
  !m

