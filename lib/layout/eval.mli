(** Static evaluation of a placement against an edge-frequency profile.

    Predicts, without running anything, how many layout-sensitive control
    transfers will be {e taken} per the profile — the quantity the mote's
    fetch stage stalls on.  The rules mirror exactly what {!Rewrite}
    emits:

    - branch whose fall-through successor is laid out next: taken as often
      as the taken edge fires;
    - branch whose {e taken} successor is next: condition gets flipped, so
      it is taken as often as the old fall edge fires;
    - branch with neither successor adjacent: branch to the taken target
      plus a bridging jump, so every execution transfers except none —
      taken-edge weight plus fall-edge weight;
    - jump/fall-through edges: free when the destination is adjacent, one
      taken transfer per traversal otherwise. *)

type policy =
  | Not_taken  (** Every taken transfer stalls (the default mote model). *)
  | Btfn
      (** Backward-taken/forward-not-taken: a conditional branch whose
          target lands {e earlier in the layout} is predicted taken, so it
          stalls only when it falls through — and vice versa.
          Unconditional jumps always stall. *)

type report = {
  taken_transfers : float;
      (** Expected stalling transfers under the policy (profile units). *)
  considered : float;  (** Branch executions + surviving jump traversals. *)
  taken_rate : float;  (** taken / considered (0 when nothing executes). *)
  bridge_jumps : int;  (** Bridging jumps the rewrite will add. *)
  size_words : int;  (** Predicted flash words after rewriting. *)
}

type scorer
(** A profile prepared for scoring many placements of its procedure: each
    block's terminator and edge weights are looked up in the
    {!Cfgir.Freq.t} once.  Immutable, so one scorer can be shared. *)

val scorer : ?policy:policy -> Cfgir.Freq.t -> scorer
(** Default policy {!Not_taken}. *)

val report : scorer -> Placement.t -> report
(** The report for one placement.  The sums run over blocks in id order,
    so a given (profile, policy, placement) always yields the same floats.
    @raise Invalid_argument if the placement is not valid for the CFG
    ({!Placement.validate}). *)

val score : scorer -> Placement.t -> float
(** [(report s p).taken_transfers], bit for bit: the objective the
    annealing search of {!Algorithms} minimizes.
    @raise Invalid_argument if the placement is not valid for the CFG. *)

val extreme : scorer -> maximize:bool -> Placement.t
(** The placement with the lowest {!score} (the highest with
    [~maximize:true]) among all that keep the entry block first: every
    permutation, in the order of Heap's algorithm from the natural
    placement, each scored to the same bits as {!score}; a later one
    replaces the best only when strictly better, so ties keep the first.
    Allocates nothing per permutation.  O(n!·n) for n blocks. *)

val evaluate : ?policy:policy -> Cfgir.Freq.t -> Placement.t -> report
(** [report (scorer ?policy f) p]. *)

val taken_transfers : ?policy:policy -> Cfgir.Freq.t -> Placement.t -> float
(** Shorthand for [(evaluate f p).taken_transfers]. *)
