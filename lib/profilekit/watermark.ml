open Mote_isa

let stub_label j = Printf.sprintf "__wm_stub_%d" j

let instrument ~sites items =
  (* The j-th Br instruction in item order corresponds to the j-th entry of
     Edges.branch_order on the assembled program, so translate sites into
     global branch indices first.  Each watermarked branch in a procedure
     gets a distinct power-of-two nop count: any subset of taken outcomes
     then shifts the path cost by a unique amount, so previously-colliding
     paths separate no matter how many branches were ambiguous. *)
  let assembled = Asm.assemble items in
  let order = Edges.branch_order assembled in
  let wanted : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let rank_within : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun j ((proc, _) as site) ->
      if List.mem site sites then begin
        let rank = Option.value ~default:0 (Hashtbl.find_opt rank_within proc) in
        Hashtbl.replace rank_within proc (rank + 1);
        Hashtbl.replace wanted j rank
      end)
    order;
  let j = ref 0 in
  let rec go pending = function
    | [] -> List.concat (List.rev pending)
    | (Asm.Proc _ as item) :: rest -> List.concat (List.rev pending) @ (item :: go [] rest)
    | (Asm.I (Isa.Br (cond, target)) as item) :: rest -> (
        let idx = !j in
        incr j;
        match Hashtbl.find_opt wanted idx with
        | Some rank ->
            let stub =
              (Asm.Label (stub_label idx) :: List.init (1 lsl rank) (fun _ -> Asm.I Isa.Nop))
              @ [ Asm.I (Isa.Jmp target) ]
            in
            Asm.I (Isa.Br (cond, stub_label idx)) :: go (stub :: pending) rest
        | None -> item :: go pending rest)
    | item :: rest -> item :: go pending rest
  in
  go [] items
