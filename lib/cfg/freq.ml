type key = int * int * Cfg.edge_kind

type t = {
  cfg : Cfg.t;
  mutable invocations : float;
  weights : (key, float) Hashtbl.t;
}

let create cfg ~invocations =
  if invocations < 0.0 then invalid_arg "Freq.create: negative invocations";
  let weights = Hashtbl.create 32 in
  List.iter (fun e -> Hashtbl.replace weights e 0.0) (Cfg.edges cfg);
  { cfg; invocations; weights }

let cfg t = t.cfg
let invocations t = t.invocations

let key_exists t key = Hashtbl.mem t.weights key

let bump t ~src ~dst ~kind w =
  let key = (src, dst, kind) in
  if not (key_exists t key) then
    invalid_arg (Printf.sprintf "Freq.bump: edge B%d->B%d not in CFG" src dst);
  Hashtbl.replace t.weights key (Hashtbl.find t.weights key +. w)

let get t ~src ~dst ~kind =
  match Hashtbl.find_opt t.weights (src, dst, kind) with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Freq.get: edge B%d->B%d not in CFG" src dst)

let weights t = List.map (fun e -> (e, Hashtbl.find t.weights e)) (Cfg.edges t.cfg)

let block_visits t =
  let n = Cfg.num_blocks t.cfg in
  let visits = Array.make n 0.0 in
  visits.(0) <- t.invocations;
  Hashtbl.iter (fun (_, dst, _) w -> visits.(dst) <- visits.(dst) +. w) t.weights;
  visits

let taken_probability t id =
  match (Cfg.block t.cfg id).Cfg.term with
  | Cfg.T_branch (_, taken, fall) ->
      let wt = get t ~src:id ~dst:taken ~kind:Cfg.K_taken in
      let wf = get t ~src:id ~dst:fall ~kind:Cfg.K_fall in
      let total = wt +. wf in
      if total <= 0.0 then 0.5 else wt /. total
  | _ -> invalid_arg (Printf.sprintf "Freq.taken_probability: B%d is not a branch" id)

let thetas t = List.map (fun id -> (id, taken_probability t id)) (Cfg.branch_blocks t.cfg)

let theta_vector t = Array.of_list (List.map snd (thetas t))

let pp fmt t =
  Format.fprintf fmt "@[<v>profile %s (%.0f invocations)@,"
    t.cfg.Cfg.proc.Mote_isa.Program.name t.invocations;
  List.iter
    (fun ((src, dst, kind), w) ->
      let k =
        match kind with Cfg.K_taken -> "T" | Cfg.K_fall -> "F" | Cfg.K_jump -> "J"
      in
      Format.fprintf fmt "  B%d -%s-> B%d : %.2f@," src k dst w)
    (weights t);
  Format.fprintf fmt "@]"
