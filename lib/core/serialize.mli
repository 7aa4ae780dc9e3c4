(** SDFG (de)serialization — the equivalent of DaCe's .sdfg files, in a
    human-diffable s-expression format.

    Everything the IR carries round-trips: containers (arrays, streams,
    storage, transience), states with nodes/edges/connectors, memlets
    (subsets, WCR, dynamic flags), scope pairings, inter-state transitions
    with conditions and assignments, declared symbols, and nested SDFGs.
    Tasklet code embeds as source text and re-parses through the tasklet
    parser; state identifiers are remapped on load (transformations can
    leave gaps).

    {!to_string} is the canonical text of a graph: a fixed layout (one
    container, state, node, edge, scope pair or transition per line,
    indented by nesting depth, everything inside those forms flat) that
    depends only on the graph, so [to_string (of_string (to_string g))]
    equals [to_string g].  The reader accepts any whitespace between
    tokens, so files in older layouts still load. *)

exception Parse_error of string

val expr_to_string : Symbolic.Expr.t -> string
(** A symbolic expression in the prefix form {!to_string} embeds. *)

val expr_of_string : string -> Symbolic.Expr.t
(** @raise Parse_error on malformed input. *)

val to_string : Defs.sdfg -> string
val of_string : string -> Defs.sdfg
(** @raise Parse_error on any malformed input, and nothing else: bad
    syntax, unknown forms, non-integer ids or ranks, bad bools or floats,
    malformed tasklet code, references to unknown nodes or states,
    duplicate node, state or container names. *)

val save : Defs.sdfg -> string -> unit
(** Write to a file path. *)

val load : string -> Defs.sdfg
