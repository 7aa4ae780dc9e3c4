(** Boolean conditions guarding inter-state transitions (paper §3.4).

    Conditions compare symbolic integer expressions; at runtime the
    symbol environment also exposes scalar containers, enabling
    data-dependent control flow (Fig. 10a). *)

type t = Defs.bexp

val true_ : t
val and_ : t -> t -> t
val cmp : Defs.cmpop -> Symbolic.Expr.t -> Symbolic.Expr.t -> t

val ne : Symbolic.Expr.t -> Symbolic.Expr.t -> t
val lt : Symbolic.Expr.t -> Symbolic.Expr.t -> t
val le : Symbolic.Expr.t -> Symbolic.Expr.t -> t
val gt : Symbolic.Expr.t -> Symbolic.Expr.t -> t
val ge : Symbolic.Expr.t -> Symbolic.Expr.t -> t

val eval : (string -> int option) -> t -> bool
(** @raise Symbolic.Expr.Unbound_symbol on unresolvable symbols. *)

val free_syms : t -> string list
val subst : (string -> Symbolic.Expr.t option) -> t -> t
val negate : t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_c : t -> string
(** C source for the generated state machine. *)
