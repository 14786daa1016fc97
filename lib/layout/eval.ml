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
let[@inline] branch_stall policy ~(src_pos : int) ~target_pos ~(w_takes : float) ~w_falls =
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

(* The taken transfers of a valid [placement] whose inverse is [pos], with
   no check and no allocation: the objective, summed in block-id order.
   [report], [score] and [extreme] all take it from here. *)
let[@inline] taken_at s (placement : Placement.t) (pos : int array) =
  let n = Array.length s.terms in
  let taken = ref 0.0 in
  for id = 0 to n - 1 do
    let src_pos = pos.(id) in
    let next = if src_pos + 1 < n then placement.(src_pos + 1) else -1 in
    match s.terms.(id) with
    | Branch { tdst; fdst; wt; wf } ->
        if next = fdst then
          taken :=
            !taken
            +. branch_stall s.policy ~src_pos ~target_pos:pos.(tdst) ~w_takes:wt ~w_falls:wf
        else if next = tdst then
          taken :=
            !taken
            +. branch_stall s.policy ~src_pos ~target_pos:pos.(fdst) ~w_takes:wf ~w_falls:wt
        else
          taken :=
            !taken
            +. branch_stall s.policy ~src_pos ~target_pos:pos.(tdst) ~w_takes:wt ~w_falls:wf
            +. wf
    | Jump { dst; w } | Fall { dst; w } -> if next <> dst then taken := !taken +. w
    | Exit -> ()
  done;
  !taken

let report s placement =
  Placement.validate s.cfg placement;
  let pos = Placement.position_of placement in
  let taken = taken_at s placement pos in
  let n = Array.length s.terms in
  let considered = ref 0.0 in
  let bridges = ref 0 in
  let size = ref s.block_words in
  for id = 0 to n - 1 do
    (* The block laid out right after this one; -1 after the last. *)
    let next = if pos.(id) + 1 < n then placement.(pos.(id) + 1) else -1 in
    match s.terms.(id) with
    | Branch { tdst; fdst; wt; wf } ->
        if next = fdst || next = tdst then considered := !considered +. wt +. wf
        else begin
          (* Branch to the taken target plus a bridging jump to the fall
             target. *)
          considered := !considered +. wt +. wf +. wf;
          incr bridges;
          size := !size + jmp_words
        end
    | Jump { dst; w } ->
        if next = dst then size := !size - jmp_words else considered := !considered +. w
    | Fall { dst; w } ->
        if next <> dst then begin
          considered := !considered +. w;
          incr bridges;
          size := !size + jmp_words
        end
    | Exit -> ()
  done;
  {
    taken_transfers = taken;
    considered = !considered;
    taken_rate = (if !considered > 0.0 then taken /. !considered else 0.0);
    bridge_jumps = !bridges;
    size_words = !size;
  }

let score s placement =
  Placement.validate s.cfg placement;
  taken_at s placement (Placement.position_of placement)

let extreme s ~maximize =
  let n = Array.length s.terms in
  let candidate = Placement.natural s.cfg in
  Placement.validate s.cfg candidate;
  (* Heap's algorithm permutes positions 1..n-1 in place, keeping the
     entry block at position 0 and [pos] the inverse of [candidate]; every
     candidate is a valid placement, so none is checked again. *)
  let pos = Placement.position_of candidate in
  let best = Array.copy candidate in
  (* A float array holds the best score unboxed. *)
  let best_score = [| taken_at s candidate pos |] in
  let consider () =
    let score = taken_at s candidate pos in
    if if maximize then score > best_score.(0) else score < best_score.(0) then begin
      Array.blit candidate 0 best 0 n;
      best_score.(0) <- score
    end
  in
  let swap i j =
    let a = candidate.(i + 1) and b = candidate.(j + 1) in
    candidate.(i + 1) <- b;
    candidate.(j + 1) <- a;
    pos.(b) <- i + 1;
    pos.(a) <- j + 1
  in
  let rec permute k =
    if k = 1 then consider ()
    else
      for i = 0 to k - 1 do
        permute (k - 1);
        if k mod 2 = 0 then swap i (k - 1) else swap 0 (k - 1)
      done
  in
  if n > 1 then permute (n - 1);
  best

let evaluate ?policy freq placement = report (scorer ?policy freq) placement
let taken_transfers ?policy freq placement = score (scorer ?policy freq) placement
