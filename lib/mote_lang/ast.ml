type binop = Add | Sub | Mul | BAnd | BOr | BXor | Shl | Shr
type relop = Req | Rne | Rlt | Rle | Rgt | Rge

type expr =
  | Int of int
  | Var of string
  | Bin of binop * expr * expr
  | Rel of relop * expr * expr
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Read_sensor of int
  | Radio_rx
  | Timer_now
  | Call_fn of string * expr list
  | Arr_get of string * expr

type stmt =
  | Assign of string * expr
  | Arr_set of string * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Break
  | Call of string * expr list
  | Radio_tx of expr
  | Led of expr
  | Return of expr option

type proc = { name : string; params : string list; locals : string list; body : stmt list }

type program = { globals : (string * int) list; arrays : (string * int) list; procs : proc list }

let rel_negate = function
  | Req -> Rne
  | Rne -> Req
  | Rlt -> Rge
  | Rle -> Rgt
  | Rgt -> Rle
  | Rge -> Rlt

let rec expr_calls = function
  | Int _ | Var _ | Read_sensor _ | Radio_rx | Timer_now -> []
  | Bin (_, a, b) | Rel (_, a, b) | And (a, b) | Or (a, b) -> expr_calls a @ expr_calls b
  | Not e | Arr_get (_, e) -> expr_calls e
  | Call_fn (name, args) -> name :: List.concat_map expr_calls args

let rec stmt_calls = function
  | Assign (_, e) | Radio_tx e | Led e -> expr_calls e
  | Arr_set (_, idx, value) -> expr_calls idx @ expr_calls value
  | Return (Some e) -> expr_calls e
  | Return None | Break -> []
  | If (c, a, b) ->
      expr_calls c @ List.concat_map stmt_calls a @ List.concat_map stmt_calls b
  | While (c, body) -> expr_calls c @ List.concat_map stmt_calls body
  | Call (name, args) -> name :: List.concat_map expr_calls args

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | BAnd -> "&"
  | BOr -> "|"
  | BXor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"

let relop_str = function
  | Req -> "=="
  | Rne -> "!="
  | Rlt -> "<"
  | Rle -> "<="
  | Rgt -> ">"
  | Rge -> ">="

let rec pp_expr fmt = function
  | Int n -> Format.fprintf fmt "%d" n
  | Var x -> Format.fprintf fmt "%s" x
  | Bin (op, a, b) -> Format.fprintf fmt "(%a %s %a)" pp_expr a (binop_str op) pp_expr b
  | Rel (op, a, b) -> Format.fprintf fmt "(%a %s %a)" pp_expr a (relop_str op) pp_expr b
  | Not e -> Format.fprintf fmt "!%a" pp_expr e
  | And (a, b) -> Format.fprintf fmt "(%a && %a)" pp_expr a pp_expr b
  | Or (a, b) -> Format.fprintf fmt "(%a || %a)" pp_expr a pp_expr b
  | Read_sensor ch -> Format.fprintf fmt "sensor(%d)" ch
  | Radio_rx -> Format.fprintf fmt "radio_rx()"
  | Timer_now -> Format.fprintf fmt "now()"
  | Call_fn (f, args) ->
      Format.fprintf fmt "%s(%a)" f
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp_expr)
        args
  | Arr_get (a, idx) -> Format.fprintf fmt "%s[%a]" a pp_expr idx

let rec pp_stmt fmt = function
  | Assign (x, e) -> Format.fprintf fmt "%s = %a;" x pp_expr e
  | Arr_set (a, idx, value) ->
      Format.fprintf fmt "%s[%a] = %a;" a pp_expr idx pp_expr value
  | If (c, a, []) ->
      Format.fprintf fmt "@[<v 2>if (%a) {@,%a@]@,}" pp_expr c pp_block a
  | If (c, a, b) ->
      Format.fprintf fmt "@[<v 2>if (%a) {@,%a@]@,@[<v 2>} else {@,%a@]@,}" pp_expr c
        pp_block a pp_block b
  | While (c, body) ->
      Format.fprintf fmt "@[<v 2>while (%a) {@,%a@]@,}" pp_expr c pp_block body
  | Call (f, args) ->
      Format.fprintf fmt "%s(%a);" f
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp_expr)
        args
  | Radio_tx e -> Format.fprintf fmt "radio_tx(%a);" pp_expr e
  | Led e -> Format.fprintf fmt "led(%a);" pp_expr e
  | Return (Some e) -> Format.fprintf fmt "return %a;" pp_expr e
  | Return None -> Format.fprintf fmt "return;"
  | Break -> Format.fprintf fmt "break;"

and pp_block fmt stmts =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt fmt stmts

let pp_proc fmt p =
  Format.fprintf fmt "@[<v 2>proc %s(%s) locals(%s) {@,%a@]@,}" p.name
    (String.concat ", " p.params)
    (String.concat ", " p.locals)
    pp_block p.body

let pp_program fmt prog =
  Format.fprintf fmt "@[<v>";
  List.iter (fun (g, init) -> Format.fprintf fmt "global %s = %d;@," g init) prog.globals;
  List.iter (fun (a, size) -> Format.fprintf fmt "array %s[%d];@," a size) prog.arrays;
  List.iter (fun p -> Format.fprintf fmt "%a@," pp_proc p) prog.procs;
  Format.fprintf fmt "@]"

module Dsl = struct
  let i n = Int n
  let v x = Var x
  let ( +: ) a b = Bin (Add, a, b)
  let ( -: ) a b = Bin (Sub, a, b)
  let ( *: ) a b = Bin (Mul, a, b)
  let ( &: ) a b = Bin (BAnd, a, b)
  let ( |: ) a b = Bin (BOr, a, b)
  let ( ^: ) a b = Bin (BXor, a, b)
  let ( <<: ) a b = Bin (Shl, a, b)
  let ( >>: ) a b = Bin (Shr, a, b)
  let ( =: ) a b = Rel (Req, a, b)
  let ( <>: ) a b = Rel (Rne, a, b)
  let ( <: ) a b = Rel (Rlt, a, b)
  let ( <=: ) a b = Rel (Rle, a, b)
  let ( >: ) a b = Rel (Rgt, a, b)
  let ( >=: ) a b = Rel (Rge, a, b)
  let ( &&: ) a b = And (a, b)
  let ( ||: ) a b = Or (a, b)
  let not_ e = Not e
  let sensor ch = Read_sensor ch
  let radio_rx = Radio_rx
  let now = Timer_now
  let fn name args = Call_fn (name, args)
  let at a idx = Arr_get (a, idx)

  let set x e = Assign (x, e)
  let set_at a idx value = Arr_set (a, idx, value)
  let if_ c a b = If (c, a, b)
  let when_ c a = If (c, a, [])
  let while_ c body = While (c, body)
  let break_ = Break
  let callp name args = Call (name, args)
  let send e = Radio_tx e
  let led e = Led e
  let return e = Return (Some e)

  let proc name ~params ~locals body = { name; params; locals; body }
end
