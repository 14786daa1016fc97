(** Fixed-size domain pool with deterministic fan-out.

    A pool owns [domains - 1] worker domains (the caller is the last
    participant) that stay alive across jobs, so repeated [map] calls
    pay the domain-spawn cost once.  Scheduling is dynamic — workers
    claim chunks of the index space from a shared atomic counter — but
    results are written into per-index slots, so the output order is
    the input order no matter how work was interleaved.  Combined with
    per-task seeding (see {!Stats.Rng.stream}), this makes parallel
    runs bit-identical to serial ones.

    Exceptions raised by tasks are captured per index; after every task
    has been attempted, the exception of the {e lowest failing index}
    is re-raised with its original backtrace — again independent of
    scheduling.

    [map] is not reentrant in the parallel sense: a task that calls
    back into its own pool (nested maps) runs that inner map serially
    instead of deadlocking.  Likewise two top-level maps on one pool
    from different domains serialize the loser.  Both still honour the
    ordering and exception contracts. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] workers.  [domains]
    defaults to [CODETOMO_DOMAINS] when that is set to a positive
    integer, otherwise to [Domain.recommended_domain_count ()]; values
    are clamped to [1, 128].
    At [domains = 1] no worker is spawned and every map runs on the
    caller — the serial fast path. *)

val domains : t -> int
(** Total parallelism, caller included. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f a] is [Array.map f a], computed by all participants.
    Result order is input order; if any task raised, the lowest-index
    exception is re-raised after all tasks have run. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list pool f l] is [List.map f l] with the same contract as
    {!map}. *)

val shutdown : t -> unit
(** Join the workers.  Idempotent; subsequent maps run serially. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] on a fresh pool and shuts it down on exit,
    whether [f] returns or raises. *)
