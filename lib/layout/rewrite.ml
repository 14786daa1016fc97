module Cfg = Cfgir.Cfg
module Isa = Mote_isa.Isa
module Asm = Mote_isa.Asm
module Program = Mote_isa.Program

let block_label proc id = Printf.sprintf "%s$B%d" proc id

type exit = Keep | Flip | Bridge | Jump | Adjacent | Stop

let exit term ~next =
  match term with
  | Cfg.T_branch (_, tdst, fdst) ->
      if next = Some fdst then Keep else if next = Some tdst then Flip else Bridge
  | Cfg.T_jump dst | Cfg.T_fall dst -> if next = Some dst then Adjacent else Jump
  | Cfg.T_ret | Cfg.T_halt -> Stop

let items program ~placements =
  let procs =
    Program.procs program |> List.sort (fun a b -> compare a.Program.entry b.Program.entry)
  in
  let call_target addr =
    match Program.proc_at program addr with
    | Some p when p.Program.entry = addr -> p.Program.name
    | Some p ->
        invalid_arg
          (Printf.sprintf "Rewrite: call into the middle of procedure %s" p.Program.name)
    | None -> invalid_arg (Printf.sprintf "Rewrite: call to unmapped address %d" addr)
  in
  let emit_proc info =
    let name = info.Program.name in
    let cfg = Cfg.of_proc program info in
    let placement =
      match List.assoc_opt name placements with
      | Some p ->
          Placement.validate cfg p;
          p
      | None -> Placement.natural cfg
    in
    let n = Array.length placement in
    let out = ref [ Asm.Proc name ] in
    let push item = out := item :: !out in
    Array.iteri
      (fun i id ->
        let b = Cfg.block cfg id in
        push (Asm.Label (block_label name id));
        let body_last =
          match b.Cfg.term with
          | Cfg.T_fall _ -> b.Cfg.last (* no terminator instruction to drop *)
          | _ -> b.Cfg.last - 1
        in
        for addr = b.Cfg.first to body_last do
          let ins = Program.instr program addr in
          push (Asm.I (Isa.map_label call_target ins))
        done;
        let next = if i + 1 < n then Some placement.(i + 1) else None in
        let lbl = block_label name in
        match (b.Cfg.term, exit b.Cfg.term ~next) with
        | Cfg.T_branch (cond, tdst, _), Keep -> push (Asm.I (Isa.Br (cond, lbl tdst)))
        | Cfg.T_branch (cond, _, fdst), Flip ->
            push (Asm.I (Isa.Br (Isa.negate_cond cond, lbl fdst)))
        | Cfg.T_branch (cond, tdst, fdst), Bridge ->
            push (Asm.I (Isa.Br (cond, lbl tdst)));
            push (Asm.I (Isa.Jmp (lbl fdst)))
        | (Cfg.T_jump dst | Cfg.T_fall dst), Jump -> push (Asm.I (Isa.Jmp (lbl dst)))
        | Cfg.T_ret, _ -> push (Asm.I Isa.Ret)
        | Cfg.T_halt, _ -> push (Asm.I Isa.Halt)
        | (Cfg.T_jump _ | Cfg.T_fall _), _ | Cfg.T_branch _, (Jump | Adjacent | Stop) -> ())
      placement;
    List.rev !out
  in
  List.concat_map emit_proc procs

let program prog ~placements = Asm.assemble (items prog ~placements)

let apply_all prog ~algorithm ~profiles =
  let placements = List.map (fun (name, freq) -> (name, algorithm freq)) profiles in
  program prog ~placements
