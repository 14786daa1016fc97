type proc_info = { name : string; entry : int; finish : int }

type t = {
  code : int Isa.instr array;
  symbols : (string * int) list;
  procs : proc_info list;
  flash_words : int;
}

let make ~code ~symbols ~procs =
  let n = Array.length code in
  Array.iteri
    (fun addr ins ->
      match Isa.label ins with
      | Some target when target < 0 || target >= n ->
          invalid_arg
            (Printf.sprintf "Program.make: instr %d targets out-of-range address %d" addr
               target)
      | Some _ | None -> ())
    code;
  List.iter
    (fun { name; entry; finish } ->
      if entry < 0 || finish > n || entry >= finish then
        invalid_arg (Printf.sprintf "Program.make: bad extent for procedure %s" name))
    procs;
  List.iter
    (fun (name, addr) ->
      if addr < 0 || addr >= n then
        invalid_arg (Printf.sprintf "Program.make: symbol %s out of range" name))
    symbols;
  let flash_words = Array.fold_left (fun acc i -> acc + Isa.size i) 0 code in
  { code; symbols; procs; flash_words }

let code t = t.code
let length t = Array.length t.code
let instr t addr = t.code.(addr)
let flash_words t = t.flash_words
let symbols t = t.symbols
let find_symbol t name = List.assoc_opt name t.symbols
let procs t = t.procs
let find_proc t name = List.find_opt (fun p -> p.name = name) t.procs
let proc_at t addr = List.find_opt (fun p -> addr >= p.entry && addr < p.finish) t.procs

let pp fmt t =
  let label_of = Hashtbl.create 16 in
  List.iter (fun (name, addr) -> Hashtbl.replace label_of addr name) t.symbols;
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun addr ins ->
      (match List.find_opt (fun p -> p.entry = addr) t.procs with
      | Some p -> Format.fprintf fmt ";; --- proc %s ---@," p.name
      | None -> ());
      (match Hashtbl.find_opt label_of addr with
      | Some name -> Format.fprintf fmt "%s:@," name
      | None -> ());
      let target l =
        match Hashtbl.find_opt label_of l with
        | Some name -> Printf.sprintf "%s(%d)" name l
        | None -> string_of_int l
      in
      Format.fprintf fmt "  %4d: %s@," addr (Isa.to_string target ins))
    t.code;
  Format.fprintf fmt "@]"
