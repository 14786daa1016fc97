type t = int array

let natural cfg = Array.init (Cfgir.Cfg.num_blocks cfg) (fun i -> i)

let validate cfg t =
  let n = Cfgir.Cfg.num_blocks cfg in
  if Array.length t <> n then invalid_arg "Placement: wrong length";
  if n > 0 && t.(0) <> 0 then invalid_arg "Placement: entry block must be first";
  let seen = Array.make n false in
  Array.iter
    (fun id ->
      if id < 0 || id >= n then invalid_arg "Placement: block id out of range";
      if seen.(id) then invalid_arg "Placement: duplicate block id";
      seen.(id) <- true)
    t

let position_of t =
  let pos = Array.make (Array.length t) 0 in
  Array.iteri (fun i id -> pos.(id) <- i) t;
  pos

let pp fmt t =
  Format.fprintf fmt "[%s]"
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "B%d") t)))
