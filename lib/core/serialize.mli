(** SDFG (de)serialization — the equivalent of DaCe's .sdfg files, in a
    human-diffable s-expression format.

    Everything the IR carries round-trips: containers (arrays, streams,
    storage, transience), states with nodes/edges/connectors, memlets
    (subsets, WCR, dynamic flags), scope pairings, inter-state transitions
    with conditions and assignments, declared symbols, and nested SDFGs.
    Tasklet code embeds as source text and re-parses through the tasklet
    parser; state identifiers are remapped on load (transformations can
    leave gaps). *)

exception Parse_error of string

type sexp = Atom of string | Str of string | List of sexp list

val parse_sexp : string -> sexp
val sexp_to_string : sexp -> string

val expr_to_sexp : Symbolic.Expr.t -> sexp
val expr_of_sexp : sexp -> Symbolic.Expr.t

val to_string : Defs.sdfg -> string
val of_string : string -> Defs.sdfg
(** @raise Parse_error on malformed input. *)

val save : Defs.sdfg -> string -> unit
(** Write to a file path. *)

val load : string -> Defs.sdfg

val hash : Defs.sdfg -> string
(** Content hash (hex) over the canonical serialized form
    ({!to_string}): two graphs hash equal iff they serialize
    identically, so the hash is stable under print∘parse round-trips and
    under {!Sdfg.clone}.  The plan-cache key of the serving layer, and a
    generally useful identity for memoizing per-graph work. *)
