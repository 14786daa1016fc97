module Machine = Mote_machine.Machine
module Devices = Mote_machine.Devices

type task_source =
  | Boot
  | Periodic of { period : int; offset : int }
  | On_radio_rx

type task = { proc : string; source : task_source }

type run_stats = {
  tasks_run : (string * int) list;
  tasks_dropped : int;
  packets_delivered : int;
  total_cycles : int;
  idle_cycles : int;
  busy_cycles : int;
}

let invocations stats proc = Option.value ~default:0 (List.assoc_opt proc stats.tasks_run)

(* Tasks are resolved once, at creation, to slots: one per distinct
   procedure, holding its entry address and run count, so dispatch does no
   name lookup or hashing. *)
type slot = { name : string; entry : int; mutable runs : int }

(* Timers are kept in task order: the order [deliver_due] posts them in. *)
type timer_state = { mutable next_fire : int; period : int; timer_task : int }

(* The task queue is a ring buffer of slot indices.  [post] keeps it
   within [queue_capacity]; boot tasks are queued without that check, so
   the ring has room for them as well. *)
type t = {
  machine : Machine.t;
  env : Env.t;
  slots : slot array;
  ring : int array;
  mutable head : int;  (** Index of the oldest queued task. *)
  mutable length : int;
  queue_capacity : int;
  timers : timer_state array;
  radio_tasks : int array;
  (* Radio arrivals are generated lazily in chunks, in ascending arrival
     order: each chunk is sorted and starts where the previous one ended,
     so the due events are always a prefix.  Every arrival below
     [radio_generated] is known. *)
  mutable radio_generated : int;
  mutable radio_pending : (int * int) list;
  (* Accumulated statistics. *)
  mutable dropped : int;
  mutable packets : int;
  mutable idle_cycles : int;
  created_at_cycles : int;
  mutable tx_drained : int;
}

let radio_chunk = 1 lsl 17

let push_task t slot =
  let ring = t.ring in
  let tail = t.head + t.length in
  ring.(if tail >= Array.length ring then tail - Array.length ring else tail) <- slot;
  t.length <- t.length + 1

let create ~machine ~env ~tasks ?(queue_capacity = 16) () =
  if queue_capacity <= 0 then invalid_arg "Node.create: queue capacity must be positive";
  let program = Machine.program machine in
  let entry_of proc =
    match Mote_isa.Program.find_proc program proc with
    | Some p -> p.Mote_isa.Program.entry
    | None -> invalid_arg (Printf.sprintf "Node.create: no procedure %S in binary" proc)
  in
  let names =
    List.fold_left
      (fun acc { proc; _ } -> if List.mem proc acc then acc else proc :: acc)
      [] tasks
    |> List.rev
  in
  let slots =
    Array.of_list (List.map (fun name -> { name; entry = entry_of name; runs = 0 }) names)
  in
  let slot_of proc =
    let rec find i = if slots.(i).name = proc then i else find (i + 1) in
    find 0
  in
  Env.attach env (Machine.devices machine);
  (* Boot-time global initialization, if the compiler emitted one. *)
  (match Mote_isa.Program.find_proc program Mote_lang.Compile.init_proc_name with
  | Some _ -> ignore (Machine.run_proc machine Mote_lang.Compile.init_proc_name)
  | None -> ());
  let timers =
    List.filter_map
      (fun { proc; source } ->
        match source with
        | Periodic { period; offset } ->
            if period <= 0 then invalid_arg "Node.create: period must be positive";
            Some { next_fire = offset; period; timer_task = slot_of proc }
        | Boot | On_radio_rx -> None)
      tasks
    |> Array.of_list
  in
  let radio_tasks =
    List.filter_map
      (fun { proc; source } -> match source with On_radio_rx -> Some (slot_of proc) | _ -> None)
      tasks
    |> Array.of_list
  in
  let boots =
    List.filter_map
      (fun { proc; source } -> match source with Boot -> Some (slot_of proc) | _ -> None)
      tasks
  in
  let t =
    {
      machine;
      env;
      slots;
      ring = Array.make (queue_capacity + List.length boots) 0;
      head = 0;
      length = 0;
      queue_capacity;
      timers;
      radio_tasks;
      radio_generated = 0;
      radio_pending = [];
      dropped = 0;
      packets = 0;
      idle_cycles = 0;
      created_at_cycles = Machine.cycles machine;
      tx_drained = 0;
    }
  in
  List.iter (push_task t) boots;
  t

let machine t = t.machine

let cycles t = Machine.cycles t.machine

let post t slot =
  if t.length >= t.queue_capacity then t.dropped <- t.dropped + 1 else push_task t slot

(* Generate the radio arrival schedule past [upto]. *)
let generate_radio t upto =
  while t.radio_generated <= upto do
    let from_cycle = t.radio_generated in
    let to_cycle = from_cycle + radio_chunk in
    let arrivals = Env.radio_arrivals t.env ~from_cycle ~to_cycle in
    t.radio_pending <- t.radio_pending @ arrivals;
    t.radio_generated <- to_cycle
  done

let inject_packet t payload =
  Devices.radio_push_rx (Machine.devices t.machine) payload;
  t.packets <- t.packets + 1;
  for i = 0 to Array.length t.radio_tasks - 1 do
    post t t.radio_tasks.(i)
  done

(* Deliver every event with a timestamp <= now. *)
let deliver_due t now =
  for i = 0 to Array.length t.timers - 1 do
    let timer = t.timers.(i) in
    while timer.next_fire <= now do
      post t timer.timer_task;
      timer.next_fire <- timer.next_fire + timer.period
    done
  done;
  generate_radio t now;
  let continue = ref true in
  while !continue do
    match t.radio_pending with
    | (at, payload) :: future when at <= now ->
        t.radio_pending <- future;
        inject_packet t payload
    | _ -> continue := false
  done

let drain_tx t =
  let devices = Machine.devices t.machine in
  let fresh = Devices.tx_since devices t.tx_drained in
  t.tx_drained <- Devices.tx_count devices;
  fresh

(* The earliest known event after cycle [x]: each timer's first fire
   past [x], and the first radio arrival past [x] generated so far. *)
let first_event_after t x =
  let first = ref max_int in
  for i = 0 to Array.length t.timers - 1 do
    let { next_fire; period; _ } = t.timers.(i) in
    let fire =
      if next_fire > x then next_fire else next_fire + ((((x - next_fire) / period) + 1) * period)
    in
    if fire < !first then first := fire
  done;
  let pending = ref t.radio_pending and scanning = ref true in
  while !scanning do
    match !pending with
    | (at, _) :: rest when at <= x -> pending := rest
    | (at, _) :: _ ->
        if at < !first then first := at;
        scanning := false
    | [] -> scanning := false
  done;
  !first

(* The planner's one search, shared by the node and its shadows: the
   earliest event after cycle [x] — a timer fire or a radio arrival —
   with [max_int] or a cycle at or past [until] meaning none before
   [until].  Right after delivering at [x] this is the next event.  The
   radio schedule is generated chunk by chunk until the event found lies
   below what is generated, or what is generated reaches [until]: a
   stretch of the schedule with no arrival is slept past, not through. *)
let rec next_event t ~until x =
  let next = first_event_after t x in
  if next < t.radio_generated || t.radio_generated >= until then next
  else begin
    generate_radio t t.radio_generated;
    next_event t ~until x
  end

let fuel_per_task = 2_000_000

type charge = { mutable cycles : int; mutable instructions : int }

type shadow = {
  charge : charge;
  entry_cycles : int array;  (** By slot: charged at each dispatch. *)
  entry_instructions : int array;
  mutable live : bool;
  mutable clock : int;
  mutable start : int;
  mutable idle : int;
  mutable charged_cycles : int;  (** [charge] already applied to [clock]. *)
  mutable charged_instructions : int;
}

let shadow t ~entry charge =
  let costs = Array.map (fun slot -> entry slot.name) t.slots in
  (* [create] already ran the binary's [__init]: charge its entry chain. *)
  (match Mote_isa.Program.find_proc (Machine.program t.machine) Mote_lang.Compile.init_proc_name with
  | Some _ ->
      let cycles, instructions = entry Mote_lang.Compile.init_proc_name in
      charge.cycles <- charge.cycles + cycles;
      charge.instructions <- charge.instructions + instructions
  | None -> ());
  {
    charge;
    entry_cycles = Array.map fst costs;
    entry_instructions = Array.map snd costs;
    live = false;
    clock = 0;
    start = 0;
    idle = 0;
    charged_cycles = 0;
    charged_instructions = 0;
  }

(* The guard.  Between two dispatches [run] makes one or more decisions:
   deliver the due events, then dispatch, or sleep to the next event,
   or sleep through [until].  A [plan] is where a node holding this
   node's queue and pending events ends up from [clock] without
   delivering anything: whether it dispatches next, the time of its last
   delivery ([min_int]: none), and its clock at the dispatch or the end.
   Only the last delivery before a dispatch can post: an earlier one left
   the queue empty. *)
type plan = { dispatch : bool; last : int; wake : int }

let posting_due t now =
  let due = ref false in
  for i = 0 to Array.length t.timers - 1 do
    if t.timers.(i).next_fire <= now then due := true
  done;
  !due
  || Array.length t.radio_tasks > 0
     && match t.radio_pending with (at, _) :: _ -> at <= now | [] -> false

let[@inline] imin (a : int) b = if a < b then a else b

let rec decide t ~until now =
  generate_radio t now;
  if t.length > 0 || posting_due t now then { dispatch = true; last = now; wake = now }
  else begin
    let next = next_event t ~until now in
    if next >= until then { dispatch = false; last = now; wake = until }
    else decide t ~until next
  end

let plan t ~until ~clock =
  if clock >= until then { dispatch = false; last = min_int; wake = clock }
  else decide t ~until clock

(* The common case after a task: the queue is empty, and the earliest
   pending event [e] — a timer fire, or an arrival that posts — lies
   before [until] ([e = max_int] when that does not hold).  A node whose
   clock is before [e] sleeps to it, delivers it and runs a task:
   [plan]'s result, computed without its search. *)
let plan_after t ~until ~e ~clock =
  if e = max_int || clock >= e then plan t ~until ~clock
  else { dispatch = true; last = e; wake = e }

(* Invariant: at each dispatch a live shadow has delivered the same
   events in the same batches, run the same tasks and holds the same
   queue as the node; only its clock differs.  So before the node's next
   decisions, the shadow's plan must agree with the node's on whether a
   task runs next and on which events are delivered before it: none of
   the pending events may lie between the two last deliveries.  Returns
   the node's own plan. *)
let guard_plans t shadows ~until =
  let now = Machine.cycles t.machine in
  let timer = ref max_int in
  for i = 0 to Array.length t.timers - 1 do
    timer := imin !timer t.timers.(i).next_fire
  done;
  let timer = !timer in
  let e =
    if t.length > 0 || now >= until then max_int
    else begin
      generate_radio t (imin timer (until - 1));
      let e = match t.radio_pending with (at, _) :: _ when at < timer -> at | _ -> timer in
      if e < until && (e = timer || Array.length t.radio_tasks > 0) then e else max_int
    end
  in
  let node = plan_after t ~until ~e ~clock:now in
  for i = 0 to Array.length shadows - 1 do
    let sh = shadows.(i) in
    if sh.live then begin
      (* From the node's own clock a shadow plans the same. *)
      let p = if sh.clock = now then node else plan_after t ~until ~e ~clock:sh.clock in
      let lo = imin node.last p.last and hi = if node.last < p.last then p.last else node.last in
      if
        p.dispatch <> node.dispatch
        || lo <> hi
           && begin
                generate_radio t hi;
                first_event_after t lo <= hi
              end
      then sh.live <- false
      else begin
        sh.idle <- sh.idle + (p.wake - sh.clock);
        sh.clock <- p.wake
      end
    end
  done;
  node

(* The node must do what its own plan said, or no shadow can be trusted. *)
let confirm shadows (expected : plan) ~dispatch ~last =
  if expected.dispatch <> dispatch || expected.last <> last then
    Array.iter (fun sh -> sh.live <- false) shadows

(* Start at the node's clock plus what the charge holds so far ([__init]'s
   extra cost).  [__init] ran on a larger fuel than a task, so holding it
   to a task's fuel is conservative. *)
let start_shadows t shadows =
  if t.idle_cycles <> 0 || Machine.cycles t.machine <> t.created_at_cycles then
    invalid_arg "Node.run: shadows follow a node's first run";
  let now = Machine.cycles t.machine and instructions = Machine.instructions t.machine in
  Array.iter
    (fun sh ->
      sh.clock <- now + sh.charge.cycles;
      sh.start <- sh.clock;
      sh.idle <- 0;
      sh.charged_cycles <- sh.charge.cycles;
      sh.charged_instructions <- sh.charge.instructions;
      sh.live <- instructions + sh.charge.instructions <= fuel_per_task)
    shadows

(* After a task of [cycles] cycles and [instructions] instructions: the
   shadow's task costs the charge made since the last one more, and must
   fit the same fuel. *)
let guard_task shadows slot ~cycles ~instructions =
  for i = 0 to Array.length shadows - 1 do
    let sh = shadows.(i) in
    let charge = sh.charge in
    charge.cycles <- charge.cycles + sh.entry_cycles.(slot);
    charge.instructions <- charge.instructions + sh.entry_instructions.(slot);
    if sh.live then begin
      if instructions + charge.instructions - sh.charged_instructions > fuel_per_task then
        sh.live <- false
      else sh.clock <- sh.clock + cycles + charge.cycles - sh.charged_cycles
    end;
    sh.charged_cycles <- charge.cycles;
    sh.charged_instructions <- charge.instructions
  done

let stats_of t ~total_cycles ~idle_cycles =
  {
    tasks_run =
      Array.to_list t.slots
      |> List.filter_map (fun slot -> if slot.runs > 0 then Some (slot.name, slot.runs) else None)
      |> List.sort compare;
    tasks_dropped = t.dropped;
    packets_delivered = t.packets;
    total_cycles;
    idle_cycles;
    busy_cycles = total_cycles - idle_cycles;
  }

let rec any_live shadows i =
  i < Array.length shadows && (shadows.(i).live || any_live shadows (i + 1))

let run ?(shadows = [||]) t ~until =
  let expected =
    ref { dispatch = false; last = min_int; wake = 0 }
  in
  if Array.length shadows > 0 then begin
    start_shadows t shadows;
    expected := guard_plans t shadows ~until
  end;
  (* Once every shadow has dropped out, the run is a plain one. *)
  let shadowed = ref (any_live shadows 0) in
  let continue = ref true in
  while !continue && Machine.cycles t.machine < until do
    let now = Machine.cycles t.machine in
    deliver_due t now;
    if t.length > 0 then begin
      if !shadowed then confirm shadows !expected ~dispatch:true ~last:now;
      let index = t.ring.(t.head) in
      let slot = t.slots.(index) in
      t.head <- (if t.head + 1 = Array.length t.ring then 0 else t.head + 1);
      t.length <- t.length - 1;
      let before = if !shadowed then Machine.instructions t.machine else 0 in
      let cycles = Machine.run_at t.machine ~fuel:fuel_per_task slot.entry in
      slot.runs <- slot.runs + 1;
      if !shadowed then begin
        guard_task shadows index ~cycles ~instructions:(Machine.instructions t.machine - before);
        expected := guard_plans t shadows ~until;
        shadowed := any_live shadows 0
      end
    end
    else begin
      let next = next_event t ~until now in
      if next >= until then begin
        if !shadowed then confirm shadows !expected ~dispatch:false ~last:now;
        (* Nothing left to do before the deadline: sleep through it. *)
        t.idle_cycles <- t.idle_cycles + (until - now);
        Machine.idle t.machine (until - now);
        continue := false
      end
      else begin
        t.idle_cycles <- t.idle_cycles + (next - now);
        Machine.idle t.machine (next - now)
      end
    end
  done;
  stats_of t
    ~total_cycles:(Machine.cycles t.machine - t.created_at_cycles)
    ~idle_cycles:t.idle_cycles

let shadow_run t sh =
  if sh.live then
    Some (stats_of t ~total_cycles:(sh.clock - sh.start) ~idle_cycles:sh.idle, sh.clock)
  else None
