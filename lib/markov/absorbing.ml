type t = {
  chain : Chain.t;
  fundamental : Linalg.Matrix.t; (* N = (I - Q)^-1 *)
}

let analyze chain =
  let n = Chain.size chain in
  let q = Chain.matrix chain in
  let i_minus_q = Linalg.Matrix.sub (Linalg.Matrix.identity n) q in
  let fundamental = Linalg.Solve.inverse i_minus_q in
  { chain; fundamental }

let chain t = t.chain

let check_start t start =
  if start < 0 || start >= Chain.size t.chain then
    invalid_arg "Absorbing: start state out of range"

let expected_visits t ~start =
  check_start t start;
  Array.copy t.fundamental.(start)

let mean_reward_vector t ~rewards =
  if Array.length rewards <> Chain.size t.chain then
    invalid_arg "Absorbing.mean_reward: reward size mismatch";
  Linalg.Matrix.mat_vec t.fundamental rewards

let mean_reward t ~rewards ~start =
  check_start t start;
  (mean_reward_vector t ~rewards).(start)

let variance_reward t ~rewards ~start =
  check_start t start;
  let n = Chain.size t.chain in
  if Array.length rewards <> n then
    invalid_arg "Absorbing.variance_reward: reward size mismatch";
  let q = Chain.matrix t.chain in
  let m = mean_reward_vector t ~rewards in
  let qm = Linalg.Matrix.mat_vec q m in
  (* Second moment s solves (I - Q) s = c² + 2 c∘(Q m). *)
  let rhs = Array.mapi (fun i c -> (c *. c) +. (2.0 *. c *. qm.(i))) rewards in
  let s = Linalg.Matrix.mat_vec t.fundamental rhs in
  Stdlib.max 0.0 (s.(start) -. (m.(start) *. m.(start)))
