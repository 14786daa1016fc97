type reg = int

let num_regs = 16

type cond = Eq | Ne | Lt | Ge | Le | Gt

type alu_op = Add | Sub | Mul | And | Or | Xor | Shl | Shr

type port =
  | P_timer
  | P_sensor of int
  | P_radio_rx
  | P_radio_tx
  | P_leds
  | P_probe
  | P_counter

type 'label instr =
  | Nop
  | Halt
  | Movi of reg * int
  | Mov of reg * reg
  | Alu of alu_op * reg * reg * reg
  | Alui of alu_op * reg * reg * int
  | Cmp of reg * reg
  | Cmpi of reg * int
  | Ld of reg * reg * int
  | St of reg * int * reg
  | Push of reg
  | Pop of reg
  | Br of cond * 'label
  | Jmp of 'label
  | Call of 'label
  | Ret
  | In of reg * port
  | Out of port * reg

let taken_penalty = 2

let base_cost = function
  | Nop | Halt -> 1
  | Movi _ | Mov _ -> 1
  | Alu (Mul, _, _, _) | Alui (Mul, _, _, _) -> 2
  | Alu _ | Alui _ -> 1
  | Cmp _ | Cmpi _ -> 1
  | Ld _ | St _ -> 2
  | Push _ | Pop _ -> 2
  | Br _ -> 1 (* +taken_penalty when taken *)
  | Jmp _ -> 1 (* always pays taken_penalty at execution *)
  | Call _ -> 2
  | Ret -> 2
  | In _ | Out _ -> 2

let size = function
  | Nop | Halt | Mov _ | Cmp _ | Push _ | Pop _ | Ret | In _ | Out _ -> 1
  | Alu _ -> 1
  | Movi _ | Alui _ | Cmpi _ | Ld _ | St _ | Br _ | Jmp _ | Call _ -> 2

let is_terminator = function
  | Br _ | Jmp _ | Ret | Halt -> true
  | Nop | Movi _ | Mov _ | Alu _ | Alui _ | Cmp _ | Cmpi _ | Ld _ | St _ | Push _
  | Pop _ | Call _ | In _ | Out _ ->
      false

let negate_cond = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Ge -> Lt
  | Le -> Gt
  | Gt -> Le

let map_label f = function
  | Br (c, l) -> Br (c, f l)
  | Jmp l -> Jmp (f l)
  | Call l -> Call (f l)
  | Nop -> Nop
  | Halt -> Halt
  | Movi (r, i) -> Movi (r, i)
  | Mov (a, b) -> Mov (a, b)
  | Alu (op, d, a, b) -> Alu (op, d, a, b)
  | Alui (op, d, a, i) -> Alui (op, d, a, i)
  | Cmp (a, b) -> Cmp (a, b)
  | Cmpi (a, i) -> Cmpi (a, i)
  | Ld (d, a, o) -> Ld (d, a, o)
  | St (a, o, s) -> St (a, o, s)
  | Push r -> Push r
  | Pop r -> Pop r
  | Ret -> Ret
  | In (r, p) -> In (r, p)
  | Out (p, r) -> Out (p, r)

let label = function
  | Br (_, l) | Jmp l | Call l -> Some l
  | Nop | Halt | Movi _ | Mov _ | Alu _ | Alui _ | Cmp _ | Cmpi _ | Ld _ | St _
  | Push _ | Pop _ | Ret | In _ | Out _ ->
      None

let cond_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Ge -> "ge"
  | Le -> "le"
  | Gt -> "gt"

let alu_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let port_to_string = function
  | P_timer -> "timer"
  | P_sensor ch -> Printf.sprintf "sensor[%d]" ch
  | P_radio_rx -> "radio.rx"
  | P_radio_tx -> "radio.tx"
  | P_leds -> "leds"
  | P_probe -> "probe"
  | P_counter -> "counter"

let pp_cond fmt c = Format.pp_print_string fmt (cond_to_string c)

let to_string lbl = function
  | Nop -> "nop"
  | Halt -> "halt"
  | Movi (r, i) -> Printf.sprintf "movi  r%d, %d" r i
  | Mov (a, b) -> Printf.sprintf "mov   r%d, r%d" a b
  | Alu (op, d, a, b) -> Printf.sprintf "%-5s r%d, r%d, r%d" (alu_to_string op) d a b
  | Alui (op, d, a, i) -> Printf.sprintf "%si r%d, r%d, %d" (alu_to_string op) d a i
  | Cmp (a, b) -> Printf.sprintf "cmp   r%d, r%d" a b
  | Cmpi (a, i) -> Printf.sprintf "cmpi  r%d, %d" a i
  | Ld (d, a, o) -> Printf.sprintf "ld    r%d, [r%d+%d]" d a o
  | St (a, o, s) -> Printf.sprintf "st    [r%d+%d], r%d" a o s
  | Push r -> Printf.sprintf "push  r%d" r
  | Pop r -> Printf.sprintf "pop   r%d" r
  | Br (c, l) -> Printf.sprintf "br.%s %s" (cond_to_string c) (lbl l)
  | Jmp l -> Printf.sprintf "jmp   %s" (lbl l)
  | Call l -> Printf.sprintf "call  %s" (lbl l)
  | Ret -> "ret"
  | In (r, p) -> Printf.sprintf "in    r%d, %s" r (port_to_string p)
  | Out (p, r) -> Printf.sprintf "out   %s, r%d" (port_to_string p) r
