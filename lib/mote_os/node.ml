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
  (* Radio arrivals are generated lazily in chunks up to this cycle, in
     ascending arrival order: each chunk is sorted and starts where the
     previous one ended, so the due events are always a prefix. *)
  mutable radio_horizon : int;
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
      radio_horizon = 0;
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

(* Extend the pre-generated radio arrival schedule to cover [upto]. *)
let extend_radio t upto =
  while t.radio_horizon <= upto do
    let from_cycle = t.radio_horizon in
    let to_cycle = t.radio_horizon + radio_chunk in
    let arrivals = Env.radio_arrivals t.env ~from_cycle ~to_cycle in
    t.radio_pending <- t.radio_pending @ arrivals;
    t.radio_horizon <- to_cycle
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
  extend_radio t now;
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

let next_event_time t =
  let next = ref max_int in
  for i = 0 to Array.length t.timers - 1 do
    if t.timers.(i).next_fire < !next then next := t.timers.(i).next_fire
  done;
  match t.radio_pending with
  | (at, _) :: _ -> Stdlib.min !next at
  | [] -> !next

let fuel_per_task = 2_000_000

let run t ~until =
  let continue = ref true in
  while !continue && Machine.cycles t.machine < until do
    let now = Machine.cycles t.machine in
    deliver_due t now;
    if t.length > 0 then begin
      let slot = t.slots.(t.ring.(t.head)) in
      t.head <- (if t.head + 1 = Array.length t.ring then 0 else t.head + 1);
      t.length <- t.length - 1;
      ignore (Machine.run_at t.machine ~fuel:fuel_per_task slot.entry);
      slot.runs <- slot.runs + 1
    end
    else begin
      extend_radio t (Stdlib.min until (now + radio_chunk));
      let next = next_event_time t in
      if next = max_int || next >= until then begin
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
  let total_cycles = Machine.cycles t.machine - t.created_at_cycles in
  {
    tasks_run =
      Array.to_list t.slots
      |> List.filter_map (fun slot -> if slot.runs > 0 then Some (slot.name, slot.runs) else None)
      |> List.sort compare;
    tasks_dropped = t.dropped;
    packets_delivered = t.packets;
    total_cycles;
    idle_cycles = t.idle_cycles;
    busy_cycles = total_cycles - t.idle_cycles;
  }
