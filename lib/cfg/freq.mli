(** Edge-frequency profiles over a procedure CFG.

    A profile records how many times each edge was traversed across some
    number of procedure invocations.  Every profiling back end produces one
    of these — the oracle hook, the edge-counter instrumentation, and the
    Code Tomography estimator (whose expected frequencies are real-valued,
    hence floats) — and the placement pass consumes them, which is what
    makes the back ends interchangeable in the experiments. *)

type t

val create : Cfg.t -> invocations:float -> t
(** All-zero profile for [invocations] observed entries into the
    procedure. *)

val cfg : t -> Cfg.t
val invocations : t -> float

val bump : t -> src:int -> dst:int -> kind:Cfg.edge_kind -> float -> unit
(** Add traversals to an edge.  The edge must exist in the CFG. *)

val get : t -> src:int -> dst:int -> kind:Cfg.edge_kind -> float

val weights : t -> ((int * int * Cfg.edge_kind) * float) list
(** All CFG edges with their weights, in CFG edge order. *)

val block_visits : t -> float array
(** Per-block visit counts implied by the profile: entry gets the
    invocation count, other blocks the sum of inbound edge weights. *)

val taken_probability : t -> int -> float
(** For a block ending in a conditional branch: estimated P(taken);
    0.5 when the block was never reached.
    @raise Invalid_argument on non-branch blocks. *)

val thetas : t -> (int * float) list
(** [(branch_block, taken probability)] for every conditional branch. *)

val theta_vector : t -> float array
(** Taken probabilities in {!Cfg.branch_blocks} order — the canonical
    parameter vector compared across estimators. *)

val pp : Format.formatter -> t -> unit
