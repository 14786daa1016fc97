module Cfg = Cfgir.Cfg

(* Union of chains, each a block list in layout order.  [chain_id.(b)] is
   the chain a block currently belongs to; chains live in [chains] keyed by
   a representative id. *)
let pettis_hansen freq =
  let cfg = Cfgir.Freq.cfg freq in
  let n = Cfg.num_blocks cfg in
  let chain_id = Array.init n (fun i -> i) in
  let chains = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace chains i [ i ]
  done;
  let head c = List.hd (Hashtbl.find chains c) in
  let tail c = List.hd (List.rev (Hashtbl.find chains c)) in
  let weighted_edges =
    Cfgir.Freq.weights freq
    |> List.filter (fun ((src, dst, _), _) -> src <> dst)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  List.iter
    (fun ((src, dst, _), w) ->
      if w > 0.0 then begin
        let ca = chain_id.(src) and cb = chain_id.(dst) in
        (* Merge only tail→head so both chains stay contiguous, and never
           put a block in front of the entry. *)
        if ca <> cb && tail ca = src && head cb = dst && dst <> 0 then begin
          let merged = Hashtbl.find chains ca @ Hashtbl.find chains cb in
          Hashtbl.replace chains ca merged;
          Hashtbl.remove chains cb;
          List.iter (fun b -> chain_id.(b) <- ca) merged
        end
      end)
    weighted_edges;
  (* Order chains: entry chain first, then repeatedly the chain most
     strongly connected (either direction) to what is already placed. *)
  let edge_weight = Hashtbl.create 32 in
  List.iter
    (fun ((src, dst, _), w) ->
      let add a b =
        let key = (a, b) in
        Hashtbl.replace edge_weight key
          (w +. Option.value ~default:0.0 (Hashtbl.find_opt edge_weight key))
      in
      add src dst;
      add dst src)
    (Cfgir.Freq.weights freq);
  let remaining = Hashtbl.fold (fun c _ acc -> c :: acc) chains [] |> List.sort compare in
  let remaining = List.filter (fun c -> c <> chain_id.(0)) remaining in
  let placed = ref (Hashtbl.find chains chain_id.(0)) in
  let order = ref [ chain_id.(0) ] in
  let rec place remaining =
    match remaining with
    | [] -> ()
    | _ ->
        let connection c =
          List.fold_left
            (fun acc b ->
              List.fold_left
                (fun acc p ->
                  acc +. Option.value ~default:0.0 (Hashtbl.find_opt edge_weight (b, p)))
                acc !placed)
            0.0 (Hashtbl.find chains c)
        in
        let best =
          List.fold_left
            (fun (bc, bw) c ->
              let w = connection c in
              if w > bw then (c, w) else (bc, bw))
            (List.hd remaining, connection (List.hd remaining))
            (List.tl remaining)
        in
        let c = fst best in
        order := c :: !order;
        placed := !placed @ Hashtbl.find chains c;
        place (List.filter (fun x -> x <> c) remaining)
  in
  place remaining;
  let placement =
    List.rev !order |> List.concat_map (fun c -> Hashtbl.find chains c) |> Array.of_list
  in
  Placement.validate cfg placement;
  placement

let greedy freq =
  let cfg = Cfgir.Freq.cfg freq in
  let n = Cfg.num_blocks cfg in
  let visits = Cfgir.Freq.block_visits freq in
  let placed = Array.make n false in
  let order = ref [] in
  let place id =
    placed.(id) <- true;
    order := id :: !order
  in
  let heaviest_successor id =
    Cfg.successors cfg id
    |> List.filter (fun (dst, _) -> not placed.(dst))
    |> List.map (fun (dst, kind) -> (dst, Cfgir.Freq.get freq ~src:id ~dst ~kind))
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> function
    | (dst, _) :: _ -> Some dst
    | [] -> None
  in
  let hottest_unplaced () =
    let best = ref None in
    for id = 0 to n - 1 do
      if not placed.(id) then
        match !best with
        | Some b when visits.(b) >= visits.(id) -> ()
        | _ -> best := Some id
    done;
    !best
  in
  let rec grow id =
    place id;
    match heaviest_successor id with
    | Some dst -> grow dst
    | None -> (
        match hottest_unplaced () with Some fresh -> grow fresh | None -> ())
  in
  if n > 0 then grow 0;
  let placement = Array.of_list (List.rev !order) in
  Placement.validate cfg placement;
  placement

let max_blocks = 9

let exhaustive ~maximize freq =
  let cfg = Cfgir.Freq.cfg freq in
  let n = Cfg.num_blocks cfg in
  if n > max_blocks then
    invalid_arg
      (Printf.sprintf "Layout: exhaustive search limited to %d blocks, CFG has %d"
         max_blocks n);
  if n <= 1 then Placement.natural cfg else Eval.extreme (Eval.scorer freq) ~maximize

let optimal freq = exhaustive ~maximize:false freq
let pessimal freq = exhaustive ~maximize:true freq

let anneal ?(seed = 1) ?(iterations = 4000) ?(restarts = 3) freq =
  let cfg = Cfgir.Freq.cfg freq in
  let n = Cfg.num_blocks cfg in
  let seed_placement = pettis_hansen freq in
  if n <= 2 then seed_placement
  else begin
    let rng = Stats.Rng.create seed in
    let scorer = Eval.scorer freq in
    let score p = Eval.score scorer p in
    let best = ref (Array.copy seed_placement) in
    let best_score = ref (score seed_placement) in
    for restart = 1 to restarts do
      ignore restart;
      let current = Array.copy !best in
      let current_score = ref (score current) in
      (* Geometric cooling sized to the typical edge weight. *)
      let t0 = Stdlib.max 1.0 (!best_score /. 10.0) in
      for i = 0 to iterations - 1 do
        let temp = t0 *. (0.995 ** float_of_int i) in
        let a = 1 + Stats.Rng.int rng (n - 1) in
        let b = 1 + Stats.Rng.int rng (n - 1) in
        if a <> b then begin
          let tmp = current.(a) in
          current.(a) <- current.(b);
          current.(b) <- tmp;
          let candidate_score = score current in
          let delta = candidate_score -. !current_score in
          let accept =
            delta <= 0.0
            || Stats.Rng.unit_float rng < exp (-.delta /. Stdlib.max 1e-9 temp)
          in
          if accept then begin
            current_score := candidate_score;
            if candidate_score < !best_score then begin
              best := Array.copy current;
              best_score := candidate_score
            end
          end
          else begin
            (* Undo. *)
            let tmp = current.(a) in
            current.(a) <- current.(b);
            current.(b) <- tmp
          end
        end
      done
    done;
    Placement.validate cfg !best;
    !best
  end
