(** Memlet propagation — the data-dependency inference of §4.3 step ❶:
    memlet ranges are propagated from tasklets and containers outwards
    through scopes, using the image of the scope function (the map range)
    on the union of the internal memlet subsets.

    Propagated outer memlets are what make exact accelerator copies
    possible, and what the performance model charges for data movement. *)

val propagate : Defs.sdfg -> unit
(** Propagate every state of [g] and of its nested SDFGs. *)
