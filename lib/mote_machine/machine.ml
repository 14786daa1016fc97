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
  mutable fuel_left : int;  (** Fuel left to [loop] while its locals are written back. *)
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
    fuel_left = 0;
    branch_hook = None;
    trace_hook = None;
  }

let program t = t.program
let devices t = t.devices
let cycles t = t.cycles
let instructions t = t.instructions
let halted t = t.halted
let pc t = t.pc
let sp t = t.sp

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
let[@inline] wrap v = ((v + 32768) land 0xFFFF) - 32768

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

let[@inline] eval_cond t = function
  | Isa.Eq -> t.flag_z
  | Isa.Ne -> not t.flag_z
  | Isa.Lt -> t.flag_n
  | Isa.Ge -> not t.flag_n
  | Isa.Le -> t.flag_n || t.flag_z
  | Isa.Gt -> not (t.flag_n || t.flag_z)

let[@inline] alu op a b =
  match op with
  | Isa.Add -> a + b
  | Isa.Sub -> a - b
  | Isa.Mul -> a * b
  | Isa.And -> a land b
  | Isa.Or -> a lor b
  | Isa.Xor -> a lxor b
  | Isa.Shl -> a lsl (b land 15)
  | Isa.Shr -> (a land 0xFFFF) lsr (b land 15)

let[@inline] set_flags t v =
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

(* The interpreter loop.  It keeps pc, cycles, the instruction count and
   the fuel in locals, which the compiler can hold in registers as long
   as no local is live across a call that returns.  So every call out of
   the loop (a hook, a port) is bracketed: the locals are written back to
   [t] before it and read back from [t] after it, and a fault raises an
   exception built by a cold function that first writes them back.  Each
   check raises exactly what [Reference.step] raises at the same point,
   with the same state, so the two agree on every statistic, device
   effect, hook call and fault.

   The fuel is implicit: [limit] is the instruction count at which the
   next fuel check fails, and [t.fuel_left] holds [limit - count] while
   the locals are written back. *)

let[@inline] write_back t ~pc ~cycles ~count ~limit =
  t.pc <- pc;
  t.cycles <- cycles;
  t.instructions <- count;
  t.fuel_left <- limit - count

(* A fault in the loop: what it raises, and with which number. *)
type trap = Fuel | Pc | Register | Index | Load | Store | Overflow | Underflow

(* The loop's cold path: write the locals back and build the exception
   to raise, with [Reference]'s message.  The loop raises it right after
   the call, so no local is live across the call. *)
let[@inline never] trap t ~pc ~cycles ~count kind arg =
  t.pc <- pc;
  t.cycles <- cycles;
  t.instructions <- count;
  match kind with
  | Fuel -> Fault (Printf.sprintf "out of fuel at pc=%d" arg)
  | Pc -> Fault (Printf.sprintf "pc outside program: %d" arg)
  | Register -> Fault (Printf.sprintf "bad register r%d" arg)
  | Index -> Invalid_argument "index out of bounds"
  | Load -> Fault (Printf.sprintf "load outside memory: %d" arg)
  | Store -> Fault (Printf.sprintf "store outside memory: %d" arg)
  | Overflow -> Fault "stack overflow"
  | Underflow -> Fault "stack underflow"

(* Register read and write for the loop: [regs] is [t.regs]. *)
let[@inline] get t (regs : int array) r ~pc ~cycles ~count =
  if r < 0 || r >= Array.length regs then raise (trap t ~pc ~cycles ~count Index r);
  Array.unsafe_get regs r

let[@inline] set t (regs : int array) r v ~pc ~cycles ~count =
  if r < 0 || r >= Array.length regs then raise (trap t ~pc ~cycles ~count Register r);
  Array.unsafe_set regs r (wrap v)

(* A [Br] under a branch hook, finished on [t] with the loop's locals
   written back, so that none of them is live across the hook call. *)
let[@inline never] branch_hooked t hook ~at ~taken ~target =
  hook ~pc:at ~taken;
  let btfn = match t.prediction with Predict_btfn -> true | Predict_not_taken -> false in
  if taken <> (btfn && target < at) then begin
    t.mispredicted_branches <- t.mispredicted_branches + 1;
    t.cycles <- t.cycles + Isa.taken_penalty
  end;
  if taken then begin
    t.taken_cond_branches <- t.taken_cond_branches + 1;
    t.pc <- target
  end
  else t.pc <- at + 1

(* The invocation returned to the sentinel, or halted. *)
exception Ended

let loop t ~fuel =
  let code = t.code and base_cost = t.base_cost and regs = t.regs and mem = t.mem in
  let n = Array.length code and mem_words = Array.length mem in
  let pc = ref t.pc and cycles = ref t.cycles and count = ref t.instructions in
  let limit = ref (t.instructions + fuel) in
  try
    while true do
      let next = !pc in
      if !count >= !limit then raise (trap t ~pc:next ~cycles:!cycles ~count:!count Fuel next);
      if next < 0 || next >= n then raise (trap t ~pc:next ~cycles:!cycles ~count:!count Pc next);
      (match t.trace_hook with
      | None -> ()
      | Some hook ->
          (* The fuel check just passed took one unit. *)
          write_back t ~pc:next ~cycles:!cycles ~count:!count ~limit:(!limit - 1);
          hook ~pc:next ~instr:(Array.unsafe_get code next) ~cycles:t.cycles;
          pc := t.pc;
          cycles := t.cycles;
          count := t.instructions;
          limit := t.instructions + t.fuel_left + 1);
      let at = !pc in
      count := !count + 1;
      cycles := !cycles + Array.unsafe_get base_cost at;
      match Array.unsafe_get code at with
      | Isa.Nop -> pc := at + 1
      | Isa.Halt ->
          t.halted <- true;
          write_back t ~pc:at ~cycles:!cycles ~count:!count ~limit:!limit;
          raise_notrace Ended
      | Isa.Movi (r, i) ->
          set t regs r i ~pc:at ~cycles:!cycles ~count:!count;
          pc := at + 1
      | Isa.Mov (d, s) ->
          let v = get t regs s ~pc:at ~cycles:!cycles ~count:!count in
          set t regs d v ~pc:at ~cycles:!cycles ~count:!count;
          pc := at + 1
      | Isa.Alu (op, d, a, b) ->
          let vb = get t regs b ~pc:at ~cycles:!cycles ~count:!count in
          let va = get t regs a ~pc:at ~cycles:!cycles ~count:!count in
          set t regs d (alu op va vb) ~pc:at ~cycles:!cycles ~count:!count;
          pc := at + 1
      | Isa.Alui (op, d, a, i) ->
          let va = get t regs a ~pc:at ~cycles:!cycles ~count:!count in
          set t regs d (alu op va i) ~pc:at ~cycles:!cycles ~count:!count;
          pc := at + 1
      | Isa.Cmp (a, b) ->
          let vb = get t regs b ~pc:at ~cycles:!cycles ~count:!count in
          let va = get t regs a ~pc:at ~cycles:!cycles ~count:!count in
          set_flags t (wrap (va - vb));
          pc := at + 1
      | Isa.Cmpi (a, i) ->
          let va = get t regs a ~pc:at ~cycles:!cycles ~count:!count in
          set_flags t (wrap (va - i));
          pc := at + 1
      | Isa.Ld (d, a, off) ->
          let addr = get t regs a ~pc:at ~cycles:!cycles ~count:!count + off in
          if addr < 0 || addr >= mem_words then
            raise (trap t ~pc:at ~cycles:!cycles ~count:!count Load addr);
          set t regs d (Array.unsafe_get mem addr) ~pc:at ~cycles:!cycles ~count:!count;
          pc := at + 1
      | Isa.St (a, off, s) ->
          let v = get t regs s ~pc:at ~cycles:!cycles ~count:!count in
          let addr = get t regs a ~pc:at ~cycles:!cycles ~count:!count + off in
          if addr < 0 || addr >= mem_words then
            raise (trap t ~pc:at ~cycles:!cycles ~count:!count Store addr);
          Array.unsafe_set mem addr (wrap v);
          pc := at + 1
      | Isa.Push r ->
          let v = get t regs r ~pc:at ~cycles:!cycles ~count:!count in
          let sp = t.sp - 1 in
          t.sp <- sp;
          if sp < 0 then raise (trap t ~pc:at ~cycles:!cycles ~count:!count Overflow 0);
          Array.unsafe_set mem sp v;
          pc := at + 1
      | Isa.Pop r ->
          let sp = t.sp in
          if sp >= mem_words then raise (trap t ~pc:at ~cycles:!cycles ~count:!count Underflow 0);
          (* Below 0 only after a stack overflow left it there. *)
          if sp < 0 then raise (trap t ~pc:at ~cycles:!cycles ~count:!count Index 0);
          t.sp <- sp + 1;
          set t regs r (Array.unsafe_get mem sp) ~pc:at ~cycles:!cycles ~count:!count;
          pc := at + 1
      | Isa.Br (c, target) -> (
          let taken = eval_cond t c in
          t.cond_branches <- t.cond_branches + 1;
          match t.branch_hook with
          | Some hook ->
              write_back t ~pc:at ~cycles:!cycles ~count:!count ~limit:!limit;
              branch_hooked t hook ~at ~taken ~target;
              pc := t.pc;
              cycles := t.cycles;
              count := t.instructions;
              limit := t.instructions + t.fuel_left
          | None ->
              let btfn =
                match t.prediction with Predict_btfn -> true | Predict_not_taken -> false
              in
              if taken <> (btfn && target < at) then begin
                t.mispredicted_branches <- t.mispredicted_branches + 1;
                cycles := !cycles + Isa.taken_penalty
              end;
              if taken then begin
                t.taken_cond_branches <- t.taken_cond_branches + 1;
                pc := target
              end
              else pc := at + 1)
      | Isa.Jmp target ->
          t.unconditional_transfers <- t.unconditional_transfers + 1;
          cycles := !cycles + Isa.taken_penalty;
          pc := target
      | Isa.Call target ->
          t.calls <- t.calls + 1;
          cycles := !cycles + Isa.taken_penalty;
          let sp = t.sp - 1 in
          t.sp <- sp;
          if sp < 0 then raise (trap t ~pc:at ~cycles:!cycles ~count:!count Overflow 0);
          Array.unsafe_set mem sp (at + 1);
          pc := target
      | Isa.Ret ->
          t.returns <- t.returns + 1;
          cycles := !cycles + Isa.taken_penalty;
          let sp = t.sp in
          if sp >= mem_words then raise (trap t ~pc:at ~cycles:!cycles ~count:!count Underflow 0);
          if sp < 0 then raise (trap t ~pc:at ~cycles:!cycles ~count:!count Index 0);
          t.sp <- sp + 1;
          let addr = Array.unsafe_get mem sp in
          if addr = sentinel then begin
            write_back t ~pc:at ~cycles:!cycles ~count:!count ~limit:!limit;
            raise_notrace Ended
          end
          else pc := addr
      | Isa.In (r, port) ->
          write_back t ~pc:at ~cycles:!cycles ~count:!count ~limit:!limit;
          set_reg t r (port_in t port);
          pc := t.pc + 1;
          cycles := t.cycles;
          count := t.instructions;
          limit := t.instructions + t.fuel_left
      | Isa.Out (port, r) ->
          let v = get t regs r ~pc:at ~cycles:!cycles ~count:!count in
          write_back t ~pc:at ~cycles:!cycles ~count:!count ~limit:!limit;
          port_out t port v;
          pc := t.pc + 1;
          cycles := t.cycles;
          count := t.instructions;
          limit := t.instructions + t.fuel_left
    done
  with Ended -> ()

let default_fuel = 10_000_000

let run_until_done ?(fuel = default_fuel) t = loop t ~fuel

(* One invocation of the procedure at [entry]: a sentinel return address
   marks the bottom frame, and [run] executes until the matching [Ret]. *)
let[@inline] invoke run t ~fuel entry =
  let before = t.cycles in
  t.halted <- false;
  push t sentinel;
  t.pc <- entry;
  run t ~fuel;
  t.cycles - before

let proc_entry t name =
  match Program.find_proc t.program name with
  | Some p -> p.Program.entry
  | None -> raise Not_found

(* No optional argument: a scheduler calls this once per task. *)
let run_at t ~fuel entry = invoke loop t ~fuel entry

let run_proc ?(fuel = default_fuel) t name = run_at t ~fuel (proc_entry t name)

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

  let run_proc ?(fuel = default_fuel) t name =
    invoke (fun t ~fuel -> run_until_done ~fuel t) t ~fuel (proc_entry t name)
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
