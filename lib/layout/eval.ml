module Cfg = Cfgir.Cfg
module Isa = Mote_isa.Isa

type policy = Not_taken | Btfn

type report = {
  taken_transfers : float;
  considered : float;
  taken_rate : float;
  bridge_jumps : int;
  size_words : int;
}

let jmp_words = Isa.size (Isa.Jmp 0)

(* Stall mass of one emitted conditional branch: [w_takes] executions take
   it, [w_falls] fall through.  Under BTFN a backward branch (target at or
   before the branch's own block — the branch instruction sits at the
   block's end, so a self-loop is backward too) is predicted taken. *)
let branch_stall policy ~src_pos ~target_pos ~w_takes ~w_falls =
  match policy with
  | Not_taken -> w_takes
  | Btfn -> if target_pos <= src_pos then w_falls else w_takes

(* A block's terminator with its edge weights looked up once. *)
type term =
  | Branch of { tdst : int; fdst : int; wt : float; wf : float }
  | Jump of { dst : int; w : float }
  | Fall of { dst : int; w : float }
  | Exit

type scorer = {
  cfg : Cfg.t;
  policy : policy;
  terms : term array;  (** By block id. *)
  block_words : int;  (** Flash words of all blocks, before rewriting. *)
}

let scorer ?(policy = Not_taken) freq =
  let cfg = Cfgir.Freq.cfg freq in
  let get = Cfgir.Freq.get freq in
  let n = Cfg.num_blocks cfg in
  let terms =
    Array.init n (fun id ->
        match (Cfg.block cfg id).Cfg.term with
        | Cfg.T_branch (_, tdst, fdst) ->
            let wt = get ~src:id ~dst:tdst ~kind:Cfg.K_taken in
            let wf = get ~src:id ~dst:fdst ~kind:Cfg.K_fall in
            Branch { tdst; fdst; wt; wf }
        | Cfg.T_jump dst -> Jump { dst; w = get ~src:id ~dst ~kind:Cfg.K_jump }
        | Cfg.T_fall dst -> Fall { dst; w = get ~src:id ~dst ~kind:Cfg.K_fall }
        | Cfg.T_ret | Cfg.T_halt -> Exit)
  in
  let block_words = Array.fold_left (fun acc b -> acc + b.Cfg.size_words) 0 cfg.Cfg.blocks in
  { cfg; policy; terms; block_words }

let report s placement =
  Placement.validate s.cfg placement;
  let pos = Placement.position_of placement in
  let n = Array.length s.terms in
  let taken = ref 0.0 and considered = ref 0.0 in
  let bridges = ref 0 in
  let size = ref s.block_words in
  for id = 0 to n - 1 do
    let src_pos = pos.(id) in
    (* The block laid out right after this one; -1 after the last. *)
    let next = if src_pos + 1 < n then placement.(src_pos + 1) else -1 in
    match s.terms.(id) with
    | Branch { tdst; fdst; wt; wf } ->
        if next = fdst then begin
          (* Branch kept: takes wt times, to tdst. *)
          taken :=
            !taken
            +. branch_stall s.policy ~src_pos ~target_pos:pos.(tdst) ~w_takes:wt ~w_falls:wf;
          considered := !considered +. wt +. wf
        end
        else if next = tdst then begin
          (* Condition flipped: takes wf times, to fdst. *)
          taken :=
            !taken
            +. branch_stall s.policy ~src_pos ~target_pos:pos.(fdst) ~w_takes:wf ~w_falls:wt;
          considered := !considered +. wt +. wf
        end
        else begin
          (* Branch to the taken target plus a bridging jump to the fall
             target: the jump is itself an always-stalling transfer. *)
          taken :=
            !taken
            +. branch_stall s.policy ~src_pos ~target_pos:pos.(tdst) ~w_takes:wt ~w_falls:wf
            +. wf;
          considered := !considered +. wt +. wf +. wf;
          incr bridges;
          size := !size + jmp_words
        end
    | Jump { dst; w } ->
        if next = dst then size := !size - jmp_words
        else begin
          taken := !taken +. w;
          considered := !considered +. w
        end
    | Fall { dst; w } ->
        if next <> dst then begin
          taken := !taken +. w;
          considered := !considered +. w;
          incr bridges;
          size := !size + jmp_words
        end
    | Exit -> ()
  done;
  {
    taken_transfers = !taken;
    considered = !considered;
    taken_rate = (if !considered > 0.0 then !taken /. !considered else 0.0);
    bridge_jumps = !bridges;
    size_words = !size;
  }

let score s placement = (report s placement).taken_transfers
let evaluate ?policy freq placement = report (scorer ?policy freq) placement
let taken_transfers ?policy freq placement = score (scorer ?policy freq) placement
