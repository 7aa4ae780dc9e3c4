(** The top-level SDFG: a state machine over dataflow states
    (paper §3, Appendix A.1: "an SDFG is a directed multigraph defined by
    the tuple (S, T, s0)"). *)

type t = Defs.sdfg

val create : ?symbols:string list -> string -> t
(** A fresh SDFG with the given declared free symbols (parametric sizes,
    §2.1). *)

val name : t -> string
val symbols : t -> string list
val declare_symbol : t -> string -> unit

(** {1 Data descriptors (§3.1)} *)

val add_desc : t -> string -> Defs.ddesc -> unit
(** @raise Defs.Invalid_sdfg on duplicate container names. *)

val add_array :
  t ->
  ?transient:bool ->
  ?storage:Defs.storage ->
  string ->
  shape:Symbolic.Expr.t list ->
  dtype:Defs.dtype ->
  unit
(** Declare an N-dimensional array container.  Transient containers are
    allocated only for the duration of SDFG execution and may be freely
    manipulated or eliminated by transformations (§3.1). *)

val add_scalar :
  t -> ?transient:bool -> ?storage:Defs.storage -> string ->
  dtype:Defs.dtype -> unit

val add_stream :
  t ->
  ?transient:bool ->
  ?storage:Defs.storage ->
  ?buffer:Symbolic.Expr.t ->
  ?shape:Symbolic.Expr.t list ->
  string ->
  dtype:Defs.dtype ->
  unit
(** Declare a stream container — a (possibly multi-dimensional array of)
    concurrent queue(s) with push/pop semantics; on FPGAs these become
    FIFO interfaces (§3.1). *)

val desc : t -> string -> Defs.ddesc
val has_desc : t -> string -> bool
val descs : t -> (string * Defs.ddesc) list
val replace_desc : t -> string -> Defs.ddesc -> unit
val remove_desc : t -> string -> unit

val fresh_name : t -> string -> string
(** A container name not yet in use, derived from the given prefix. *)

(** {1 States and transitions (§3.4)} *)

val add_state : t -> ?label:string -> unit -> Defs.state
(** The first state added becomes the start state. *)

val state : t -> int -> Defs.state
val states : t -> Defs.state list
val num_states : t -> int
val start_state : t -> Defs.state
val set_start : t -> int -> unit

val remove_state : t -> int -> unit
(** Also removes transitions touching the state. *)

val add_transition :
  t ->
  ?cond:Defs.bexp ->
  ?assign:(string * Symbolic.Expr.t) list ->
  src:int ->
  dst:int ->
  unit ->
  Defs.istate_edge
(** An inter-state edge: after the source state's dataflow completes, if
    [cond] holds, the [assign]ments execute and control moves to [dst]
    (Appendix A.2.3).  Conditions may read scalar containers, enabling
    data-dependent control flow (Fig. 10a). *)

val transitions : t -> Defs.istate_edge list
val out_transitions : t -> int -> Defs.istate_edge list
val in_transitions : t -> int -> Defs.istate_edge list
val remove_transition : t -> Defs.istate_edge -> unit

val replace_transition : t -> Defs.istate_edge -> Defs.istate_edge -> unit
(** Physical-equality replacement, for in-place transformation edits. *)

(** {1 Whole-graph queries} *)

val used_containers : t -> string list

val arguments : t -> (string * Defs.ddesc) list
(** Non-transient containers, in declaration order — the entry-point
    signature of the generated library. *)

val free_symbols : t -> string list
(** Symbols appearing in shapes, ranges, memlets or conditions that are
    never bound by a map parameter or a transition assignment. *)

val clone : t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
