(** Cost watermarking: make equal-cost branch arms timing-distinguishable
    during profiling.

    When {!Tomo.Identify} flags a branch as ambiguous, end-to-end timing
    cannot estimate it because both outcomes cost the same.  The fix is a
    profiling-build-only transformation: route the branch's taken edge
    through a small delay stub ([nop; jmp target]), skewing that outcome by
    a few cycles so the timing mixture separates.  The production binary —
    the one the placement pass rewrites — never carries the stub; only the
    instrumented profiling image does, and the estimator models the
    instrumented CFG, so no correction is needed anywhere.

    Branch order is preserved (stubs add a jump, not a branch), so
    parameter vectors transfer between the watermarked and original
    binaries index-by-index, exactly as with the timing probes. *)

open Mote_isa

val instrument : sites:(string * int) list -> Asm.item list -> Asm.item list
(** The [rank]-th watermarked branch of a procedure (0-based, address
    order) gets a stub of 2{^rank} nops plus the stub jump, so any
    combination of taken outcomes shifts the path cost by a distinct
    amount — multiple mutually-colliding branches separate
    simultaneously.

    [sites] are [(procedure, branch block id)] pairs in the coordinates
    of the {e assembled} input (as produced by {!Edges.branch_order} /
    {!Tomo.Identify.ambiguous_blocks}).  Branches not listed are left
    untouched.  Unknown sites are ignored. *)
