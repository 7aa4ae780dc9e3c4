(** Subgraph pattern matching for transformations (paper §4.1: "we use
    the VF2 algorithm to find isomorphic subgraphs").

    A pattern is a small graph of role-named node predicates plus edge
    constraints; {!match_state} enumerates injective role assignments via
    VF2-style backtracking ordered by pattern connectivity. *)

type pnode = { p_role : string; p_pred : Sdfg_ir.State.t -> int -> bool }

type pedge = {
  pe_src : string;
  pe_dst : string;
  pe_pred : Sdfg_ir.State.t -> Sdfg_ir.Defs.edge -> bool;
}

type t = { pat_nodes : pnode list; pat_edges : pedge list }

type assignment = (string * int) list
(** role name -> matched node id *)

(** {1 Node and edge predicates} *)

val is_access : Sdfg_ir.State.t -> int -> bool

(** {1 Construction} *)

val node : ?pred:(Sdfg_ir.State.t -> int -> bool) -> string -> pnode
val edge :
  ?pred:(Sdfg_ir.State.t -> Sdfg_ir.Defs.edge -> bool) ->
  string -> string -> pedge

val path_graph : pnode list -> t
(** A chain of nodes connected in order — the pattern shape used by
    RedundantArray (Appendix D's "node_path_graph"). *)

val make : pnode list -> pedge list -> t

(** {1 Matching} *)

val match_sdfg : t -> Sdfg_ir.Sdfg.t -> (int * assignment) list
(** Matches across every state, tagged with the state id. *)
