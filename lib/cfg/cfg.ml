open Mote_isa

type edge_kind = K_taken | K_fall | K_jump

type terminator =
  | T_branch of Isa.cond * int * int
  | T_jump of int
  | T_fall of int
  | T_ret
  | T_halt

type block = {
  id : int;
  first : int;
  last : int;
  base_cost : int;
  size_words : int;
  callees : string list;
  term : terminator;
}

type t = {
  proc : Program.proc_info;
  blocks : block array;
  preds : int list array;
}

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let of_proc program (info : Program.proc_info) =
  let { Program.name; entry; finish } = info in
  let in_range a = a >= entry && a < finish in
  (* Leaders: entry, every branch/jump target, and every address following a
     terminator (so all instructions are partitioned into blocks). *)
  let leaders = Hashtbl.create 16 in
  Hashtbl.replace leaders entry ();
  for addr = entry to finish - 1 do
    let ins = Program.instr program addr in
    (match ins with
    | Isa.Br (_, target) | Isa.Jmp target ->
        if not (in_range target) then
          malformed "procedure %s: branch at %d escapes to %d" name addr target;
        Hashtbl.replace leaders target ()
    | _ -> ());
    if Isa.is_terminator ins && addr + 1 < finish then Hashtbl.replace leaders (addr + 1) ()
  done;
  let leader_list =
    Hashtbl.fold (fun a () acc -> a :: acc) leaders [] |> List.sort compare
  in
  let leader_arr = Array.of_list leader_list in
  let n = Array.length leader_arr in
  let block_of_addr = Hashtbl.create 16 in
  Array.iteri (fun id a -> Hashtbl.replace block_of_addr a id) leader_arr;
  let target_block a =
    match Hashtbl.find_opt block_of_addr a with
    | Some id -> id
    | None -> malformed "procedure %s: target %d is not a leader" name a
  in
  let blocks =
    Array.init n (fun id ->
        let first = leader_arr.(id) in
        let last = (if id + 1 < n then leader_arr.(id + 1) else finish) - 1 in
        let base_cost = ref 0 and size_words = ref 0 and callees = ref [] in
        for addr = first to last do
          let ins = Program.instr program addr in
          base_cost := !base_cost + Isa.base_cost ins;
          size_words := !size_words + Isa.size ins;
          match ins with
          | Isa.Call target -> (
              match Program.proc_at program target with
              | Some p -> callees := p.Program.name :: !callees
              | None -> malformed "procedure %s: call to unknown address %d" name target)
          | _ -> ()
        done;
        let term =
          match Program.instr program last with
          | Isa.Br (cond, target) ->
              if last + 1 >= finish then
                malformed "procedure %s: branch at %d has no fall-through" name last;
              T_branch (cond, target_block target, target_block (last + 1))
          | Isa.Jmp target -> T_jump (target_block target)
          | Isa.Ret -> T_ret
          | Isa.Halt -> T_halt
          | _ ->
              if last + 1 >= finish then
                malformed "procedure %s: control falls off the end" name
              else T_fall (target_block (last + 1))
        in
        { id; first; last; base_cost = !base_cost; size_words = !size_words;
          callees = List.rev !callees; term })
  in
  let preds = Array.make n [] in
  Array.iter
    (fun b ->
      let link dst = preds.(dst) <- b.id :: preds.(dst) in
      match b.term with
      | T_branch (_, taken, fall) ->
          link taken;
          link fall
      | T_jump dst | T_fall dst -> link dst
      | T_ret | T_halt -> ())
    blocks;
  Array.iteri (fun i l -> preds.(i) <- List.sort_uniq compare l) preds;
  { proc = info; blocks; preds }

let of_program program = List.map (of_proc program) (Program.procs program)

let of_proc_name program name =
  match Program.find_proc program name with
  | Some info -> of_proc program info
  | None -> raise Not_found

let num_blocks t = Array.length t.blocks
let block t id = t.blocks.(id)
let entry t = t.blocks.(0)

let successors t id =
  match t.blocks.(id).term with
  | T_branch (_, taken, fall) -> [ (taken, K_taken); (fall, K_fall) ]
  | T_jump dst -> [ (dst, K_jump) ]
  | T_fall dst -> [ (dst, K_fall) ]
  | T_ret | T_halt -> []

let edges t =
  Array.to_list t.blocks
  |> List.concat_map (fun b -> List.map (fun (dst, k) -> (b.id, dst, k)) (successors t b.id))

let branch_blocks t =
  Array.to_list t.blocks
  |> List.filter_map (fun b -> match b.term with T_branch _ -> Some b.id | _ -> None)

let exit_blocks t =
  Array.to_list t.blocks
  |> List.filter_map (fun b ->
         match b.term with T_ret | T_halt -> Some b.id | _ -> None)

let reachable t =
  let n = num_blocks t in
  let seen = Array.make n false in
  let rec visit id =
    if not seen.(id) then begin
      seen.(id) <- true;
      List.iter (fun (dst, _) -> visit dst) (successors t id)
    end
  in
  if n > 0 then visit 0;
  seen

let dominators t =
  let n = num_blocks t in
  let reach = reachable t in
  (* Bitset per block: dom.(b).(d) = d dominates b.  Start from "everything
     dominates everything" and shrink. *)
  let dom = Array.init n (fun _ -> Array.make n true) in
  for i = 0 to n - 1 do
    if i = 0 then begin
      Array.fill dom.(0) 0 n false;
      dom.(0).(0) <- true
    end
    else if not reach.(i) then Array.fill dom.(i) 0 n false
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 1 to n - 1 do
      if reach.(b) then begin
        let inter = Array.make n true in
        let has_pred = ref false in
        List.iter
          (fun p ->
            if reach.(p) then begin
              has_pred := true;
              for d = 0 to n - 1 do
                if not dom.(p).(d) then inter.(d) <- false
              done
            end)
          t.preds.(b);
        if not !has_pred then Array.fill inter 0 n false;
        inter.(b) <- true;
        if inter <> dom.(b) then begin
          dom.(b) <- inter;
          changed := true
        end
      end
    done
  done;
  Array.mapi
    (fun b bits ->
      if not reach.(b) then []
      else
        let out = ref [] in
        for d = n - 1 downto 0 do
          if bits.(d) then out := d :: !out
        done;
        !out)
    dom

let back_edges t =
  let dom = dominators t in
  let reach = reachable t in
  edges t
  |> List.filter_map (fun (src, dst, _) ->
         if reach.(src) && List.mem dst dom.(src) then Some (src, dst) else None)

let loop_headers t = back_edges t |> List.map snd |> List.sort_uniq compare

let static_cond_branches t = List.length (branch_blocks t)

let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n" t.proc.Program.name);
  Array.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "  b%d [shape=box,label=\"B%d [%d..%d] cost=%d\"];\n" b.id b.id
           b.first b.last b.base_cost))
    t.blocks;
  List.iter
    (fun (src, dst, kind) ->
      let style =
        match kind with
        | K_taken -> " [label=\"T\",color=red]"
        | K_fall -> " [label=\"F\"]"
        | K_jump -> " [label=\"J\",style=dashed]"
      in
      Buffer.add_string buf (Printf.sprintf "  b%d -> b%d%s;\n" src dst style))
    (edges t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp fmt t =
  Format.fprintf fmt "@[<v>proc %s: %d blocks@," t.proc.Program.name (num_blocks t);
  Array.iter
    (fun b ->
      let term =
        match b.term with
        | T_branch (c, tk, fl) ->
            Printf.sprintf "br.%s -> B%d | B%d" (Format.asprintf "%a" Isa.pp_cond c) tk fl
        | T_jump d -> Printf.sprintf "jmp -> B%d" d
        | T_fall d -> Printf.sprintf "fall -> B%d" d
        | T_ret -> "ret"
        | T_halt -> "halt"
      in
      Format.fprintf fmt "  B%d [%d..%d] cost=%d %s@," b.id b.first b.last b.base_cost term)
    t.blocks;
  Format.fprintf fmt "@]"
