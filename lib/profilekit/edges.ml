open Mote_isa

(* First RAM word used for counters: above the compiler's static data for
   all bundled workloads, below the stack. *)
let counter_base = 3072

let scratch = Probes.scratch_reg (* r13: address register *)
let borrowed = 12 (* saved/restored around each bump *)

(* push r12; movi r13,addr; ld r12,[r13]; addi r12,1; st [r13],r12; pop r12 *)
let bump_items addr =
  [
    Asm.I (Isa.Push borrowed);
    Asm.I (Isa.Movi (scratch, addr));
    Asm.I (Isa.Ld (borrowed, scratch, 0));
    Asm.I (Isa.Alui (Isa.Add, borrowed, borrowed, 1));
    Asm.I (Isa.St (scratch, 0, borrowed));
    Asm.I (Isa.Pop borrowed);
  ]

let stub_label j = Printf.sprintf "__edge_stub_%d" j

let instrument items =
  (* Walk items keeping the stubs accumulated for the current procedure;
     flush them before the next [Proc] so branches stay intra-procedural. *)
  let j = ref 0 in
  let rec go pending = function
    | [] -> List.concat (List.rev pending)
    | (Asm.Proc _ as item) :: rest -> List.concat (List.rev pending) @ (item :: go [] rest)
    | Asm.I (Isa.Br (cond, target)) :: rest ->
        let idx = !j in
        incr j;
        let stub =
          Asm.Label (stub_label idx)
          :: (bump_items (counter_base + (2 * idx)) @ [ Asm.I (Isa.Jmp target) ])
        in
        (Asm.I (Isa.Br (cond, stub_label idx))
        :: bump_items (counter_base + (2 * idx) + 1))
        @ go (stub :: pending) rest
    | item :: rest -> item :: go pending rest
  in
  go [] items

let branch_order program =
  (* Procedures in address order, branch blocks in address order within
     each: matches the global Br-instruction order the instrumenter saw. *)
  let procs =
    Program.procs program
    |> List.sort (fun a b -> compare a.Program.entry b.Program.entry)
  in
  List.concat_map
    (fun info ->
      let cfg = Cfgir.Cfg.of_proc program info in
      Cfgir.Cfg.branch_blocks cfg
      |> List.map (fun id -> (id, (Cfgir.Cfg.block cfg id).Cfgir.Cfg.last))
      |> List.sort (fun (_, a) (_, b) -> compare a b)
      |> List.map (fun (id, _) -> (info.Program.name, id)))
    procs

let num_counters program = 2 * List.length (branch_order program)

let group_by_proc entries =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (proc, v) ->
      match Hashtbl.find_opt tbl proc with
      | Some cell -> cell := v :: !cell
      | None ->
          Hashtbl.replace tbl proc (ref [ v ]);
          order := proc :: !order)
    entries;
  List.rev_map (fun proc -> (proc, List.rev !(Hashtbl.find tbl proc))) !order

let counts_of_memory ~original machine =
  branch_order original
  |> List.mapi (fun jdx (proc, block_id) ->
         let read off =
           Mote_machine.Machine.read_mem machine (counter_base + (2 * jdx) + off)
         in
         (proc, (block_id, (read 0, read 1))))
  |> group_by_proc
