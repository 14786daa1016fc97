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

(** {1 Shadows}

    A shadow follows a {e variant} of the node's binary — another layout
    of it, say — through a run of the node's own binary, when the two
    execute the same instructions apart from jumps, neither reads the
    timer, and they differ only in how many cycles and jumps that takes.
    The caller charges the variant's extra cycles
    and instructions to a {!charge} as the node's binary runs (from a
    branch hook, say); {!run} keeps the variant's clock beside its own and
    checks at every decision that the variant would decide the same way.
    While that holds, the variant delivers the same events, runs the same
    tasks on the same inputs and drops the same posts, so one run yields
    both. *)

type charge = { mutable cycles : int; mutable instructions : int }
(** What the variant has spent beyond the node's binary so far.  Its
    observer adds to it; {!run} adds the entry cost of each task it
    starts. *)

type shadow

val shadow : t -> entry:(string -> int * int) -> charge -> shadow
(** A shadow for a node that has not run yet.  [entry proc] is the
    variant's extra [(cycles, instructions)] from the start of [proc] to
    its first charged event, charged at each start of [proc]: at every
    dispatch, and here once for the [__init] procedure {!create} ran.  The
    charge must already hold what [__init]'s own events cost. *)

val run : ?shadows:shadow array -> t -> until:int -> run_stats
(** Execute until the cycle clock reaches [until] (tasks run to
    completion, so the clock may overshoot by the last task's length).
    Can be called repeatedly to extend a run; statistics accumulate from
    node creation.

    With [shadows], which only a node's first run may take, each shadow's
    clock starts at the node's plus its charge and moves on by each task's
    cycles plus the charge made during it.  Between two dispatches the
    node makes one or more decisions (deliver the due events, then run a
    task, or sleep to the next event, or sleep through [until]).  Before
    each such stretch the run works out where the shadow's clock would
    take it from the same queue and pending events, and the shadow drops
    out — for good — unless:
    - both run a task next, or both reach the end of the run;
    - no pending timer fire or radio arrival lies between the two last
      deliveries, so both deliver the same events in the same batch (the
      earlier deliveries of a stretch post nothing);
    - each task's instructions plus the charged ones stay within the
      per-task fuel (else the variant's run would fault).
    The shadow sees radio arrivals through its own horizon, as its own
    run would.  Idle stretches end at an event, so the two clocks often
    agree again after one. *)

val shadow_run : t -> shadow -> (run_stats * int) option
(** After {!run}: the variant's statistics and final cycle clock, or
    [None] if the shadow dropped out. *)

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
