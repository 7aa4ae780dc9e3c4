(** The standard transformation library (paper §4.1: "we provide a
    standard library of such transformations, which is meant to be used
    as a baseline for performance engineers"; Appendix B, Table 4).

    Individual transformations live in the [*_xforms] modules; this
    module aggregates them into one static list, resolves names against
    it (interactive tools and optimization-chain files refer to
    transformations by name, §4.2), and provides the
    strict-transformation cleanup pass of Appendix D. *)

val all : Xform.t list
(** The full standard library, sorted by name.  Sorting makes
    enumeration — and therefore every search or tie-break built on it —
    deterministic. *)

val names : string list
(** [List.map (fun x -> x.x_name) all]: the sorted name list. *)

val lookup : string -> Xform.t
(** @raise Xform.Not_applicable on unknown names. *)

val apply_by_name :
  ?validate:bool -> Sdfg_ir.Sdfg.t -> string -> (unit, string) result
(** {!Xform.apply_first} of {!lookup}; [Error] also on unknown names. *)

val apply_chain :
  ?validate:bool ->
  Sdfg_ir.Sdfg.t ->
  Xform.chain_step list ->
  (unit, string) result
(** Replay a chain step by step; [Error] on an unknown transformation,
    a missing candidate index or a failed application. *)

val strict : Xform.t list
(** Strict transformations can only improve the program and are applied
    automatically after frontend processing (Appendix D: "strict
    transformations ... include StateFusion and InlineSDFG"). *)

val apply_strict : Sdfg_ir.Sdfg.t -> unit
(** Apply every strict transformation to its fixpoint, in order.  A
    transformation whose application fails midway is skipped rather than
    aborting the pass. *)
