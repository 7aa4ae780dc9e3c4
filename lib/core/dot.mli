(** Graphviz export, mirroring the visual language of the paper's figures:
    ellipses for access nodes, octagons for tasklets, trapezoids for map
    entry/exit, dashed edges for write-conflict-resolution memlets, and
    one cluster per state with blue inter-state transition edges. *)

val of_sdfg : Defs.sdfg -> string
(** The whole SDFG: state clusters plus the transition state machine. *)
