(** Placement algorithms.

    [pettis_hansen] is the classic bottom-up chain construction from
    Pettis & Hansen (PLDI 1990) — the pass the paper feeds its estimated
    profiles into.  [greedy] is the simpler top-down trace-growing
    baseline, [optimal]/[pessimal] exhaust permutations on small
    procedures to bound what placement can possibly achieve (ablation
    A9). *)

val pettis_hansen : Cfgir.Freq.t -> Placement.t
(** Merge blocks into chains along edges in decreasing weight order (a
    merge joins the tail of one chain to the head of another; the entry
    block is pinned as a chain head), then emit the entry chain first and
    the remaining chains in decreasing order of their connection weight to
    the already-placed ones. *)

val greedy : Cfgir.Freq.t -> Placement.t
(** Grow a single trace from the entry along the heaviest outgoing edge to
    an unplaced block; restart from the hottest unplaced block when
    stuck. *)

val optimal : Cfgir.Freq.t -> Placement.t
(** Exhaustive minimization of {!Eval.taken_transfers}.
    @raise Invalid_argument when the CFG has more than 9 blocks. *)

val pessimal : Cfgir.Freq.t -> Placement.t
(** Exhaustive maximization — the worst-case layout for T4's spread.
    @raise Invalid_argument when the CFG has more than 9 blocks. *)

val anneal :
  ?seed:int -> ?iterations:int -> ?restarts:int -> Cfgir.Freq.t -> Placement.t
(** Simulated annealing over placements (neighbour move: swap two
    non-entry blocks or relocate one), seeded from the Pettis–Hansen
    result and never returning anything worse than it.  Useful on
    procedures too large for {!optimal}.  Defaults: seed 1, 4000
    iterations per restart, 3 restarts. *)
