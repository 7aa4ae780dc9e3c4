(** The transformation interface (paper §4.1).

    A transformation is a named "find and replace" operation on SDFGs:
    [x_find] enumerates candidate subgraph matches (pattern matching plus
    programmatic [can_be_applied]-style checks), [x_apply] rewrites the
    graph in place.  {!apply} re-propagates memlets and re-validates, so
    transformations compose "in a verifiable manner (without breaking
    semantics)" (§2).  {!Std} holds the standard library and resolves
    transformations by name. *)

type candidate = {
  c_state : int;                  (** state the match lives in *)
  c_nodes : (string * int) list;  (** pattern role -> node id *)
  c_note : string;                (** human-readable description *)
}

val candidate :
  ?note:string -> state:int -> (string * int) list -> candidate

type t = {
  x_name : string;
  x_description : string;
  x_find : Sdfg_ir.Sdfg.t -> candidate list;
  x_apply : Sdfg_ir.Sdfg.t -> candidate -> unit;
}

exception Not_applicable of string

val not_applicable : ('a, Format.formatter, unit, 'b) format4 -> 'a

val make :
  name:string ->
  description:string ->
  find:(Sdfg_ir.Sdfg.t -> candidate list) ->
  apply:(Sdfg_ir.Sdfg.t -> candidate -> unit) ->
  t

(** {1 Application}

    The primary application surface returns [(unit, string) result]:
    [Error msg] when the transformation does not apply (no match, failed
    precondition), so callers — the optimizer, the CLI, sessions — drive
    control flow on values.  The [*_exn] variants raise
    {!Not_applicable} instead. *)

val apply : ?validate:bool -> Sdfg_ir.Sdfg.t -> t -> candidate -> unit
(** Apply to one candidate, then re-run memlet propagation and (unless
    [validate:false]) the validation pass. *)

val apply_first : ?validate:bool -> Sdfg_ir.Sdfg.t -> t -> (unit, string) result
(** Apply to the first candidate; [Error] if no subgraph matches. *)

val apply_until_fixpoint :
  ?validate:bool -> ?max_iter:int -> Sdfg_ir.Sdfg.t -> t -> (unit, string) result
(** Re-find and apply until the pattern no longer occurs (bounded).
    Reaching the fixpoint without a single application is [Ok ()]; [Error]
    only when an application itself fails midway. *)

val apply_first_exn : ?validate:bool -> Sdfg_ir.Sdfg.t -> t -> unit

val apply_until_fixpoint_exn :
  ?validate:bool -> ?max_iter:int -> Sdfg_ir.Sdfg.t -> t -> unit

(** {1 Optimization chains (§4.2)}

    A chain is a replayable sequence of (transformation, candidate index)
    steps — the file format behind "save transformation chains to files
    ... when tuning to different architectures". *)

type chain_step = { cs_xform : string; cs_index : int }

val chain_to_string : chain_step list -> string

val chain_of_string : string -> chain_step list
(** @raise Not_applicable on malformed lines (anything but
    ["<name>"] or ["<name> <index>"]; blank lines and [#] comments are
    skipped). *)
