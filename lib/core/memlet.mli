(** Memlet construction and queries (paper §2.1 Fig. 3, §3, Appendix A.1).

    A memlet annotates a dataflow edge with the container it moves data
    of, the subset visible at the source, an optional reindex subset at
    the destination, the number of elements moved (used for performance
    modeling), an optional write-conflict resolution, and a dynamic flag
    for data-dependent access counts. *)

type t = Defs.memlet

val simple :
  ?other:Symbolic.Subset.t ->
  ?wcr:Defs.wcr ->
  ?dynamic:bool ->
  ?accesses:Symbolic.Expr.t ->
  string ->
  Symbolic.Subset.t ->
  t
(** [simple data subset] — access count defaults to the subset volume. *)

val full : string -> Symbolic.Expr.t list -> t
(** Whole-container memlet for an array of the given shape. *)

val element : ?wcr:Defs.wcr -> string -> Symbolic.Expr.t list -> t
(** Single element at symbolic indices. *)

val dyn : ?wcr:Defs.wcr -> string -> Symbolic.Subset.t -> t
(** Dynamic (unknown access count) — rendered "(dyn)" as in Fig. 8. *)

val data : t -> string
val subset : t -> Symbolic.Subset.t
val wcr : t -> Defs.wcr option

val volume : t -> Symbolic.Expr.t option
(** Elements moved; [None] for dynamic memlets. *)

val subst_list : (string * Symbolic.Expr.t) list -> t -> t
val free_syms : t -> string list
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints the paper's notation, e.g. [A[0:N] (CR: Sum)]. *)

val to_string : t -> string
