(* The 64-bit state lives unboxed in 8 bytes: a mutable [int64] field
   would box a fresh state on every draw.  Only this module reads or
   writes the bytes, always whole and in native byte order. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

(* SplitMix64 output function (Steele, Lea, Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] bits64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix s

let split t = of_state (bits64 t)

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  Array.init n (fun _ -> split t)

let stream ~seed ~index =
  if index < 0 then invalid_arg "Rng.stream: negative index";
  (* Jump the SplitMix64 state by [index + 1] gammas and mix, so stream 0
     differs from [create seed] itself and streams are mutually
     decorrelated without any shared mutable parent. *)
  let base = Int64.of_int seed in
  let jumped =
    Int64.add base (Int64.mul golden_gamma (Int64.of_int (index + 1)))
  in
  of_state (mix jumped)

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for
     bound << 2^62 and determinism is what matters here.  Masking with
     max_int keeps the value non-negative after Int64 truncation. *)
  let v = Int64.to_int (bits64 t) land max_int in
  v mod bound

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

(* 53 random bits mapped to [0,1): exact, since both fit a double. *)
let[@inline] unit_float t = float_of_int (bits53 t) *. (1.0 /. 9007199254740992.0)

let float t bound = unit_float t *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = unit_float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let categorical t w =
  let total = Array.fold_left ( +. ) 0.0 w in
  if total <= 0.0 then invalid_arg "Rng.categorical: weights sum to zero";
  let x = unit_float t *. total in
  let n = Array.length w in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if x < acc then i else scan (i + 1) acc
  in
  scan 0 0.0
