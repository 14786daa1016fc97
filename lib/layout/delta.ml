module Cfg = Cfgir.Cfg
module Isa = Mote_isa.Isa
module Program = Mote_isa.Program

type t = {
  cycles : int array;
  jumps : int array;
  taken : int array;
  entries : (string * (int * int)) list;
}

(* A jump costs its base cycles plus the taken penalty; a taken
   conditional branch costs the penalty over falling through. *)
let jump_cycles = Isa.base_cost (Isa.Jmp 0) + Isa.taken_penalty

let cost ~jumps ~taken = (jumps * jump_cycles) + (taken * Isa.taken_penalty)

exception Loops

(* Each procedure's CFG with, by block id, the block laid out after it in
   the re-placed binary ([None] after the last). *)
let layouts program ~placements =
  List.map
    (fun (info : Program.proc_info) ->
      let cfg = Cfg.of_proc program info in
      let placement =
        match List.assoc_opt info.Program.name placements with
        | Some p -> p
        | None -> Placement.natural cfg
      in
      let n = Array.length placement in
      let next = Array.make n None in
      Array.iteri (fun i id -> if i + 1 < n then next.(id) <- Some placement.(i + 1)) placement;
      (info.Program.name, (cfg, next)))
    (Program.procs program)

let create program ~placements =
  let procs = layouts program ~placements in
  let covered =
    List.fold_left
      (fun acc (info : Program.proc_info) -> acc + info.Program.finish - info.Program.entry)
      0 (Program.procs program)
  in
  if covered <> Program.length program then None
  else begin
    (* Extra jumps of the fixed continuation from the start of a block:
       the entry chains its calls run, then its terminator, then on
       through jumps and falls until a conditional branch or an exit.
       Memoized per block; a block met again while its own continuation
       is being summed is a loop with no way out. *)
    let memo = Hashtbl.create 64 and busy = Hashtbl.create 16 in
    let rec continuation proc id =
      match Hashtbl.find_opt memo (proc, id) with
      | Some j -> j
      | None ->
          if Hashtbl.mem busy (proc, id) then raise Loops;
          Hashtbl.replace busy (proc, id) ();
          let cfg, next = List.assoc proc procs in
          let b = Cfg.block cfg id in
          let calls =
            List.fold_left (fun acc callee -> acc + continuation callee 0) 0 b.Cfg.callees
          in
          let rest =
            match b.Cfg.term with
            | Cfg.T_jump dst | Cfg.T_fall dst ->
                let natural = match b.Cfg.term with Cfg.T_jump _ -> 1 | _ -> 0 in
                let placed =
                  match Rewrite.exit b.Cfg.term ~next:next.(id) with Rewrite.Jump -> 1 | _ -> 0
                in
                placed - natural + continuation proc dst
            | Cfg.T_branch _ | Cfg.T_ret | Cfg.T_halt -> 0
          in
          Hashtbl.remove busy (proc, id);
          Hashtbl.replace memo (proc, id) (calls + rest);
          calls + rest
    in
    let size = 2 * Program.length program in
    let cycles = Array.make size 0 and jumps = Array.make size 0 and taken = Array.make size 0 in
    match
      List.iter
        (fun (proc, (cfg, next)) ->
          Array.iter
            (fun (b : Cfg.block) ->
              match b.Cfg.term with
              | Cfg.T_branch (_, tdst, fdst) ->
                  let exit = Rewrite.exit b.Cfg.term ~next:next.(b.Cfg.id) in
                  List.iter
                    (fun outcome ->
                      (* The binary's branch falls into [fdst]: it is taken
                         exactly when the outcome is. *)
                      let placed_taken, placed_jumps =
                        match exit with
                        | Rewrite.Flip -> (not outcome, 0)
                        | Rewrite.Bridge -> (outcome, if outcome then 0 else 1)
                        | _ -> (outcome, 0)
                      in
                      let dt = Bool.to_int placed_taken - Bool.to_int outcome in
                      let dj =
                        placed_jumps + continuation proc (if outcome then tdst else fdst)
                      in
                      let i = (2 * b.Cfg.last) + Bool.to_int outcome in
                      cycles.(i) <- cost ~jumps:dj ~taken:dt;
                      jumps.(i) <- dj;
                      taken.(i) <- dt)
                    [ false; true ]
              | _ -> ())
            cfg.Cfg.blocks)
        procs;
      List.map
        (fun (proc, _) ->
          let jumps = continuation proc 0 in
          (proc, (cost ~jumps ~taken:0, jumps)))
        procs
    with
    | entries -> Some { cycles; jumps; taken; entries }
    | exception Loops -> None
  end
