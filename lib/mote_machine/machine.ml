open Mote_isa

type prediction = Predict_not_taken | Predict_btfn

type stats = {
  instructions : int;
  cycles : int;
  cond_branches : int;
  taken_cond_branches : int;
  mispredicted_branches : int;
  unconditional_transfers : int;
  calls : int;
  returns : int;
}

let taken_transfer_rate s =
  let considered = s.cond_branches + s.unconditional_transfers in
  if considered = 0 then 0.0
  else
    float_of_int (s.mispredicted_branches + s.unconditional_transfers)
    /. float_of_int considered

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

type t = {
  program : Program.t;
  code : int Isa.instr array;
  base_cost : int array;  (** [Isa.base_cost] of each instruction, by pc. *)
  devices : Devices.t;
  prediction : prediction;
  regs : int array;
  mem : int array;
  mutable flag_z : bool;
  mutable flag_n : bool;
  mutable pc : int;
  mutable sp : int;
  mutable halted : bool;
  mutable instructions : int;
  mutable cycles : int;
  mutable cond_branches : int;
  mutable taken_cond_branches : int;
  mutable mispredicted_branches : int;
  mutable unconditional_transfers : int;
  mutable calls : int;
  mutable returns : int;
  mutable branch_hook : (pc:int -> taken:bool -> unit) option;
  mutable trace_hook : (pc:int -> instr:int Isa.instr -> cycles:int -> unit) option;
}

(* Sentinel return address marking the bottom of a run_proc invocation. *)
let sentinel = -1

let create ?(mem_words = 4096) ?(prediction = Predict_not_taken) ~program ~devices () =
  if mem_words <= 16 then invalid_arg "Machine.create: memory too small";
  let code = Program.code program in
  {
    program;
    code;
    base_cost = Array.map Isa.base_cost code;
    devices;
    prediction;
    regs = Array.make Isa.num_regs 0;
    mem = Array.make mem_words 0;
    flag_z = false;
    flag_n = false;
    pc = 0;
    sp = mem_words;
    halted = false;
    instructions = 0;
    cycles = 0;
    cond_branches = 0;
    taken_cond_branches = 0;
    mispredicted_branches = 0;
    unconditional_transfers = 0;
    calls = 0;
    returns = 0;
    branch_hook = None;
    trace_hook = None;
  }

let program t = t.program
let devices t = t.devices
let cycles t = t.cycles
let halted t = t.halted

let stats t =
  {
    instructions = t.instructions;
    cycles = t.cycles;
    cond_branches = t.cond_branches;
    taken_cond_branches = t.taken_cond_branches;
    mispredicted_branches = t.mispredicted_branches;
    unconditional_transfers = t.unconditional_transfers;
    calls = t.calls;
    returns = t.returns;
  }

let check_reg r = if r < 0 || r >= Isa.num_regs then fault "bad register r%d" r

let reg t r =
  check_reg r;
  t.regs.(r)

(* 16-bit two's-complement wrap. *)
let wrap v = ((v + 32768) land 0xFFFF) - 32768

let set_reg t r v =
  check_reg r;
  t.regs.(r) <- wrap v

let read_mem t addr =
  if addr < 0 || addr >= Array.length t.mem then fault "load outside memory: %d" addr;
  t.mem.(addr)

let write_mem t addr v =
  if addr < 0 || addr >= Array.length t.mem then fault "store outside memory: %d" addr;
  t.mem.(addr) <- wrap v

let set_branch_hook t hook = t.branch_hook <- hook
let set_trace_hook t hook = t.trace_hook <- hook

let push t v =
  t.sp <- t.sp - 1;
  if t.sp < 0 then fault "stack overflow";
  t.mem.(t.sp) <- v

let pop t =
  if t.sp >= Array.length t.mem then fault "stack underflow";
  let v = t.mem.(t.sp) in
  t.sp <- t.sp + 1;
  v

let eval_cond t = function
  | Isa.Eq -> t.flag_z
  | Isa.Ne -> not t.flag_z
  | Isa.Lt -> t.flag_n
  | Isa.Ge -> not t.flag_n
  | Isa.Le -> t.flag_n || t.flag_z
  | Isa.Gt -> not (t.flag_n || t.flag_z)

let alu op a b =
  match op with
  | Isa.Add -> a + b
  | Isa.Sub -> a - b
  | Isa.Mul -> a * b
  | Isa.And -> a land b
  | Isa.Or -> a lor b
  | Isa.Xor -> a lxor b
  | Isa.Shl -> a lsl (b land 15)
  | Isa.Shr -> (a land 0xFFFF) lsr (b land 15)

let set_flags t v =
  t.flag_z <- v = 0;
  t.flag_n <- v < 0

let port_in t = function
  | Isa.P_timer -> Devices.read_timer t.devices ~cycles:t.cycles
  | Isa.P_sensor ch -> Devices.read_sensor t.devices ~channel:ch
  | Isa.P_radio_rx -> Devices.radio_rx t.devices
  | Isa.P_radio_tx -> fault "cannot read from radio.tx"
  | Isa.P_leds -> Devices.leds t.devices
  | Isa.P_probe -> fault "cannot read from probe port"
  | Isa.P_counter -> fault "cannot read from counter port"

let port_out t port v =
  match port with
  | Isa.P_radio_tx -> Devices.radio_tx t.devices v
  | Isa.P_leds -> Devices.set_leds t.devices v
  | Isa.P_probe -> Devices.probe t.devices ~pc:t.pc ~cycles:t.cycles ~value:v
  | Isa.P_counter -> Devices.bump_counter t.devices v
  | Isa.P_timer -> fault "cannot write to timer"
  | Isa.P_sensor _ -> fault "cannot write to sensor"
  | Isa.P_radio_rx -> fault "cannot write to radio.rx"

(* The interpreter: one loop over the code and base-cost arrays, with the
   instruction dispatch written out in place.  It performs the same checks,
   in the same order, as the per-instruction [Reference.step] below (fuel,
   pc bounds, trace hook, registers, memory, stack), so the two agree on
   every statistic, device effect and fault message. *)
let run_until_done ?(fuel = 10_000_000) t =
  let code = t.code and base_cost = t.base_cost and regs = t.regs in
  let n = Array.length code in
  let btfn = match t.prediction with Predict_btfn -> true | Predict_not_taken -> false in
  let remaining = ref fuel in
  let running = ref true in
  while !running do
    if !remaining <= 0 then fault "out of fuel at pc=%d" t.pc;
    decr remaining;
    let at = t.pc in
    if at < 0 || at >= n then fault "pc outside program: %d" at;
    let ins = Array.unsafe_get code at in
    (match t.trace_hook with
    | Some hook -> hook ~pc:at ~instr:ins ~cycles:t.cycles
    | None -> ());
    t.instructions <- t.instructions + 1;
    t.cycles <- t.cycles + Array.unsafe_get base_cost at;
    match ins with
    | Isa.Nop -> t.pc <- at + 1
    | Isa.Halt ->
        t.halted <- true;
        running := false
    | Isa.Movi (r, i) ->
        set_reg t r i;
        t.pc <- at + 1
    | Isa.Mov (d, s) ->
        set_reg t d regs.(s);
        t.pc <- at + 1
    | Isa.Alu (op, d, a, b) ->
        set_reg t d (alu op regs.(a) regs.(b));
        t.pc <- at + 1
    | Isa.Alui (op, d, a, i) ->
        set_reg t d (alu op regs.(a) i);
        t.pc <- at + 1
    | Isa.Cmp (a, b) ->
        set_flags t (wrap (regs.(a) - regs.(b)));
        t.pc <- at + 1
    | Isa.Cmpi (a, i) ->
        set_flags t (wrap (regs.(a) - i));
        t.pc <- at + 1
    | Isa.Ld (d, a, off) ->
        set_reg t d (read_mem t (regs.(a) + off));
        t.pc <- at + 1
    | Isa.St (a, off, s) ->
        write_mem t (regs.(a) + off) regs.(s);
        t.pc <- at + 1
    | Isa.Push r ->
        push t regs.(r);
        t.pc <- at + 1
    | Isa.Pop r ->
        set_reg t r (pop t);
        t.pc <- at + 1
    | Isa.Br (c, target) ->
        let taken = eval_cond t c in
        t.cond_branches <- t.cond_branches + 1;
        (match t.branch_hook with Some hook -> hook ~pc:at ~taken | None -> ());
        if taken <> (btfn && target < at) then begin
          t.mispredicted_branches <- t.mispredicted_branches + 1;
          t.cycles <- t.cycles + Isa.taken_penalty
        end;
        if taken then begin
          t.taken_cond_branches <- t.taken_cond_branches + 1;
          t.pc <- target
        end
        else t.pc <- at + 1
    | Isa.Jmp target ->
        t.unconditional_transfers <- t.unconditional_transfers + 1;
        t.cycles <- t.cycles + Isa.taken_penalty;
        t.pc <- target
    | Isa.Call target ->
        t.calls <- t.calls + 1;
        t.cycles <- t.cycles + Isa.taken_penalty;
        push t (at + 1);
        t.pc <- target
    | Isa.Ret ->
        t.returns <- t.returns + 1;
        t.cycles <- t.cycles + Isa.taken_penalty;
        let addr = pop t in
        if addr = sentinel then running := false else t.pc <- addr
    | Isa.In (r, port) ->
        set_reg t r (port_in t port);
        t.pc <- at + 1
    | Isa.Out (port, r) ->
        port_out t port regs.(r);
        t.pc <- at + 1
  done

(* One invocation of the procedure at [entry]: a sentinel return address
   marks the bottom frame, and [run] executes until the matching [Ret]. *)
let invoke run ?fuel t entry =
  let before = t.cycles in
  t.halted <- false;
  push t sentinel;
  t.pc <- entry;
  run ?fuel t;
  t.cycles - before

let proc_entry t name =
  match Program.find_proc t.program name with
  | Some p -> p.Program.entry
  | None -> raise Not_found

let run_at ?fuel t entry = invoke run_until_done ?fuel t entry
let run_proc ?fuel t name = run_at ?fuel t (proc_entry t name)

let from_symbol run ?fuel t name =
  match Program.find_symbol t.program name with
  | None -> raise Not_found
  | Some addr ->
      t.halted <- false;
      t.pc <- addr;
      (* Halting is the only way out: give the bottom frame a sentinel so a
         stray Ret faults on stack underflow rather than looping. *)
      run ?fuel t

let run_from_symbol ?fuel t name = from_symbol run_until_done ?fuel t name

module Reference = struct
  (* Execute the instruction at pc.  Returns [true] while the current
     invocation is still running; [false] once it returned to the sentinel
     or halted. *)
  let step t =
    let n = Program.length t.program in
    if t.pc < 0 || t.pc >= n then fault "pc outside program: %d" t.pc;
    let at = t.pc in
    let ins = Program.instr t.program at in
    (match t.trace_hook with
    | Some hook -> hook ~pc:at ~instr:ins ~cycles:t.cycles
    | None -> ());
    t.instructions <- t.instructions + 1;
    t.cycles <- t.cycles + Isa.base_cost ins;
    let continue = ref true in
    (match ins with
    | Isa.Nop -> t.pc <- at + 1
    | Isa.Halt ->
        t.halted <- true;
        continue := false
    | Isa.Movi (r, i) ->
        set_reg t r i;
        t.pc <- at + 1
    | Isa.Mov (d, s) ->
        set_reg t d t.regs.(s);
        t.pc <- at + 1
    | Isa.Alu (op, d, a, b) ->
        set_reg t d (alu op t.regs.(a) t.regs.(b));
        t.pc <- at + 1
    | Isa.Alui (op, d, a, i) ->
        set_reg t d (alu op t.regs.(a) i);
        t.pc <- at + 1
    | Isa.Cmp (a, b) ->
        set_flags t (wrap (t.regs.(a) - t.regs.(b)));
        t.pc <- at + 1
    | Isa.Cmpi (a, i) ->
        set_flags t (wrap (t.regs.(a) - i));
        t.pc <- at + 1
    | Isa.Ld (d, a, off) ->
        set_reg t d (read_mem t (t.regs.(a) + off));
        t.pc <- at + 1
    | Isa.St (a, off, s) ->
        write_mem t (t.regs.(a) + off) t.regs.(s);
        t.pc <- at + 1
    | Isa.Push r ->
        push t t.regs.(r);
        t.pc <- at + 1
    | Isa.Pop r ->
        set_reg t r (pop t);
        t.pc <- at + 1
    | Isa.Br (c, target) ->
        let taken = eval_cond t c in
        t.cond_branches <- t.cond_branches + 1;
        (match t.branch_hook with Some hook -> hook ~pc:at ~taken | None -> ());
        let predicted_taken =
          match t.prediction with
          | Predict_not_taken -> false
          | Predict_btfn -> target < at
        in
        if taken <> predicted_taken then begin
          t.mispredicted_branches <- t.mispredicted_branches + 1;
          t.cycles <- t.cycles + Isa.taken_penalty
        end;
        if taken then begin
          t.taken_cond_branches <- t.taken_cond_branches + 1;
          t.pc <- target
        end
        else t.pc <- at + 1
    | Isa.Jmp target ->
        t.unconditional_transfers <- t.unconditional_transfers + 1;
        t.cycles <- t.cycles + Isa.taken_penalty;
        t.pc <- target
    | Isa.Call target ->
        t.calls <- t.calls + 1;
        t.cycles <- t.cycles + Isa.taken_penalty;
        push t (at + 1);
        t.pc <- target
    | Isa.Ret ->
        t.returns <- t.returns + 1;
        t.cycles <- t.cycles + Isa.taken_penalty;
        let addr = pop t in
        if addr = sentinel then continue := false else t.pc <- addr
    | Isa.In (r, port) ->
        set_reg t r (port_in t port);
        t.pc <- at + 1
    | Isa.Out (port, r) ->
        port_out t port t.regs.(r);
        t.pc <- at + 1);
    !continue

  let run_until_done ?(fuel = 10_000_000) t =
    let remaining = ref fuel in
    let running = ref true in
    while !running do
      if !remaining <= 0 then fault "out of fuel at pc=%d" t.pc;
      decr remaining;
      running := step t
    done

  let run_proc ?fuel t name = invoke run_until_done ?fuel t (proc_entry t name)
  let run_from_symbol ?fuel t name = from_symbol run_until_done ?fuel t name
end

let idle t n =
  if n < 0 then invalid_arg "Machine.idle: negative cycles";
  t.cycles <- t.cycles + n

let reset t =
  Array.fill t.regs 0 (Array.length t.regs) 0;
  Array.fill t.mem 0 (Array.length t.mem) 0;
  t.flag_z <- false;
  t.flag_n <- false;
  t.pc <- 0;
  t.sp <- Array.length t.mem;
  t.halted <- false;
  t.instructions <- 0;
  t.cycles <- 0;
  t.cond_branches <- 0;
  t.taken_cond_branches <- 0;
  t.mispredicted_branches <- 0;
  t.unconditional_transfers <- 0;
  t.calls <- 0;
  t.returns <- 0
