(** SDFG validation — step ❶ of the compilation pipeline (paper §4.3):
    scopes correctly structured, memlets connected with matching
    dimensionality, tasklets touching only their connectors, and map
    schedules / storage locations feasible (e.g. a GPU thread-block map
    must be nested inside a GPU device map). *)

val check : Defs.sdfg -> unit
(** Validate recursively (including nested SDFGs).
    @raise Defs.Invalid_sdfg with a descriptive message on the first
    violation. *)

val is_valid : Defs.sdfg -> bool
(** Boolean convenience wrapper around {!check}. *)

(** {1 Accumulating validation}

    [validate] reports {e every} violation it can reach — one located
    error per offending node/edge/state — instead of stopping at the
    first, so fuzzer repros and user graphs get complete diagnostics.
    Checks gated by structural prerequisites (scope analysis on a cyclic
    state) are skipped once the prerequisite fails. *)

type error = {
  e_sdfg : string;          (** name of the (possibly nested) SDFG *)
  e_state : string option;  (** label of the state, when state-local *)
  e_msg : string;
}

val errors : Defs.sdfg -> error list
(** All violations found, outer graph first, then per state in id order,
    then nested SDFGs.  [[]] iff the graph is valid. *)

val validate : Defs.sdfg -> (unit, error list) result

val error_to_string : error -> string
