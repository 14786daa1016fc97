(** Perturbation-free ground-truth profiler.

    Hooks the simulator's branch-resolution callback, so it observes every
    conditional branch outcome without adding a single instruction or cycle
    to the program — something only possible in simulation.  This provides
    the "perfect profile" upper bound for placement quality and the ground
    truth that the estimation-accuracy experiments compare against.

    {!attach} numbers every conditional-branch site of the program once
    (a per-pc index); the hook then only bumps int counters, so profiling
    costs no hashing per executed branch. *)

type t

val attach : Mote_machine.Machine.t -> t
(** Installs the hook (replacing any previous one) and starts counting. *)

val detach : t -> unit

val counts : t -> proc:string -> (int * (int * int)) list
(** [(branch block id, (taken, fall))] for the procedure, block-ordered. *)

val thetas : t -> proc:string -> (int * float) list
(** Observed taken probabilities; 0.5 for never-executed branches. *)

val theta_vector : t -> proc:string -> float array
(** In {!Cfgir.Cfg.branch_blocks} order. *)

val total_branches : t -> int

val freq : t -> proc:string -> invocations:float -> Cfgir.Freq.t
(** Empirical edge-frequency profile: branch edges get their observed
    counts; unconditional edges get the flow implied by conservation
    (computed exactly from the counts, see {!Flowcount}). *)
