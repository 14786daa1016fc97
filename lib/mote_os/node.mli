(** A simulated sensor node: TinyOS-style run-to-completion tasks over the
    CT16 machine, driven by timer and radio events from an environment.

    Time is the machine's cycle counter.  Tasks are procedure names in the
    loaded binary; each execution is one procedure invocation — exactly
    the unit Code Tomography times.  The task queue is bounded (TinyOS
    posts fail when the queue is full); drops are counted, not fatal.

    Task names are resolved to entry addresses and run counters once, in
    {!create}; dispatch looks nothing up by name.  Timers are int arrays
    and the task queue is a ring buffer of slot indices, so running a task
    allocates nothing.  Radio arrivals are
    generated ahead in chunks and kept in ascending arrival order, so
    delivering the due ones pops a prefix of the schedule: the cost of an
    event loop iteration does not grow with the pending schedule. *)

type task_source =
  | Boot  (** Posted once when the node starts. *)
  | Periodic of { period : int; offset : int }
      (** Posted every [period] cycles, first at [offset]. *)
  | On_radio_rx
      (** Posted once per arriving packet (payload is queued on the radio
          device before the task runs). *)

type task = { proc : string; source : task_source }

type run_stats = {
  tasks_run : (string * int) list;  (** Invocation count per procedure. *)
  tasks_dropped : int;
  packets_delivered : int;
  total_cycles : int;
  idle_cycles : int;
  busy_cycles : int;
}

val invocations : run_stats -> string -> int

type t

val create :
  machine:Mote_machine.Machine.t ->
  env:Env.t ->
  tasks:task list ->
  ?queue_capacity:int ->
  unit ->
  t
(** Attaches the environment's sensors to the machine's devices and runs
    the compiled [__init] procedure if the binary has one.  Default queue
    capacity 16.
    @raise Invalid_argument if a task names a procedure missing from the
    binary. *)

val machine : t -> Mote_machine.Machine.t

val run : t -> until:int -> run_stats
(** Execute until the cycle clock reaches [until] (tasks run to
    completion, so the clock may overshoot by the last task's length).
    Can be called repeatedly to extend a run; statistics accumulate from
    node creation. *)

val cycles : t -> int
(** The node's current cycle clock. *)

val inject_packet : t -> int -> unit
(** Deliver one inbound payload word from outside the node (another node's
    transmission, routed by {!Network}): queues it on the radio device and
    posts every [On_radio_rx] task. *)

val drain_tx : t -> int list
(** Words the node transmitted since the last drain (oldest first).
    O(words returned), so draining after every quantum of a long
    {!Network} run stays linear in the words transmitted. *)
