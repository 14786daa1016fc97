module Machine = Mote_machine.Machine
module Program = Mote_isa.Program
module Cfg = Cfgir.Cfg

(* Every conditional branch of the program is a site, numbered once at
   attach time; the hook maps its pc to the site through an array and
   bumps int counters, so counting hashes nothing. *)
type t = {
  machine : Machine.t;
  cfgs : (string * Cfg.t) list;
  site_of_pc : int array; (* branch pc -> site index, -1 elsewhere *)
  sites : (string * (int * int) list) list; (* proc -> (branch block, site) *)
  taken : int array; (* per site *)
  fall : int array;
  mutable total : int;
}

let attach machine =
  let program = Machine.program machine in
  let cfgs = List.map (fun cfg -> (cfg.Cfg.proc.Program.name, cfg)) (Cfg.of_program program) in
  let site_of_pc = Array.make (Program.length program) (-1) in
  let next = ref 0 in
  let sites =
    List.map
      (fun (name, cfg) ->
        ( name,
          List.map
            (fun id ->
              let site = !next in
              incr next;
              site_of_pc.((Cfg.block cfg id).Cfg.last) <- site;
              (id, site))
            (Cfg.branch_blocks cfg) ))
      cfgs
  in
  let t =
    {
      machine;
      cfgs;
      site_of_pc;
      sites;
      taken = Array.make !next 0;
      fall = Array.make !next 0;
      total = 0;
    }
  in
  Machine.set_branch_hook machine
    (Some
       (fun ~pc ~taken ->
         let site = t.site_of_pc.(pc) in
         if site >= 0 then begin
           t.total <- t.total + 1;
           let counts = if taken then t.taken else t.fall in
           counts.(site) <- counts.(site) + 1
         end));
  t

let detach t = Machine.set_branch_hook t.machine None

let sites_of t proc =
  match List.assoc_opt proc t.sites with
  | Some sites -> sites
  | None -> invalid_arg (Printf.sprintf "Oracle: unknown procedure %S" proc)

let cfg_of t proc =
  match List.assoc_opt proc t.cfgs with
  | Some cfg -> cfg
  | None -> invalid_arg (Printf.sprintf "Oracle: unknown procedure %S" proc)

let counts t ~proc =
  List.map (fun (id, site) -> (id, (t.taken.(site), t.fall.(site)))) (sites_of t proc)

let thetas t ~proc =
  counts t ~proc
  |> List.map (fun (id, (tk, fl)) ->
         let total = tk + fl in
         (id, if total = 0 then 0.5 else float_of_int tk /. float_of_int total))

let theta_vector t ~proc = Array.of_list (List.map snd (thetas t ~proc))

let total_branches t = t.total

let freq t ~proc ~invocations =
  let cfg = cfg_of t proc in
  let counts =
    counts t ~proc
    |> List.map (fun (id, (tk, fl)) -> (id, (float_of_int tk, float_of_int fl)))
  in
  Flowcount.freq_of_branch_counts cfg ~invocations ~counts
