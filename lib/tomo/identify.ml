type t = { ambiguous : bool array; collisions : int }

let epsilon = 0.5

let analyze paths =
  let pth = Paths.paths paths in
  let k = Model.num_params (Paths.model paths) in
  let ambiguous = Array.make k false in
  let collisions = ref 0 in
  (* Sort by cost so collision candidates are adjacent runs. *)
  let order = Array.init (Array.length pth) Fun.id in
  Array.sort (fun a b -> compare pth.(a).Paths.cost pth.(b).Paths.cost) order;
  let n = Array.length order in
  for i = 0 to n - 1 do
    let pi = pth.(order.(i)) in
    let j = ref (i + 1) in
    while !j < n && pth.(order.(!j)).Paths.cost -. pi.Paths.cost <= epsilon do
      let pj = pth.(order.(!j)) in
      let differs = ref false in
      for p = 0 to k - 1 do
        if pi.Paths.taken.(p) <> pj.Paths.taken.(p) then begin
          ambiguous.(p) <- true;
          differs := true
        end
      done;
      if !differs then incr collisions;
      incr j
    done
  done;
  { ambiguous; collisions = !collisions }

let any t = Array.exists Fun.id t.ambiguous

let ambiguous_blocks t model =
  let blocks = Model.param_blocks model in
  Array.to_list blocks
  |> List.filteri (fun k _ -> t.ambiguous.(k))
