(** Static race analysis for map scopes — the gate for multicore
    execution.

    Parallelism is explicit in the IR: a map scope *is* a parallel loop
    and WCR edges *are* its conflicts (paper §3.3).  Before the compiled
    engine distributes a map's outermost dimension across domains, this
    pass must prove that doing so cannot race: per-iteration access
    footprints (the symbolic memlet subsets, as functions of the chunked
    map parameter) must be disjoint across that parameter, conflicting
    writes must go through a commutative write-conflict resolution with a
    known identity (so they can run into per-domain private accumulators
    merged in canonical order), and scope-local transients must be
    provably iteration-private (fully written before read) so each domain
    can get its own copy.  Anything unprovable is forced sequential with
    a machine-readable reason.

    The analysis is sound but incomplete: a [Serial] verdict never means
    a race exists, and a [Parallel] verdict must never be wrong.  The
    unit tables in [test_properties] pin the taxonomy; the
    [parallel_crossval] fuzz oracle checks the end-to-end guarantee. *)

type reason = {
  r_code : string;
    (** machine-readable: one of ["no-params"], ["consume-scope"],
        ["reduce-node"], ["nested-sdfg"], ["stream-access"],
        ["copy-opaque"], ["dynamic-memlet"], ["tiled-subset"],
        ["overlapping-writes"], ["read-write-overlap"], ["wcr-read"],
        ["wcr-mixed"], ["wcr-non-commutative"], ["wcr-no-identity"],
        ["transient-shared"], ["unprovable-footprint"] — and, from the
        pipeline verdict: ["no-consume"], ["nested-consume"],
        ["non-stream-compute"], ["multi-consumer"], ["multi-producer"],
        ["stream-shape"], ["stream-body-read"], ["stream-self-feed"],
        ["data-dependent-subset"], ["stage-overlap"], ["stream-cycle"] *)
  r_detail : string;  (** human-readable elaboration *)
}

(** How the scope touches one container, with respect to the chunked
    (outermost) map parameter. *)
type access_class =
  | Read_only      (** never written inside the scope *)
  | Disjoint       (** per-iteration footprints provably disjoint *)
  | Accumulate of Sdfg_ir.Defs.wcr
      (** all writes go through one commutative WCR with an identity and
          the container is never read in the scope: safe with per-domain
          private accumulators merged in canonical order *)
  | Private
      (** scope-local transient, fully overwritten before any read in
          each iteration: safe with one private copy per domain *)
  | Conflict of reason  (** unprovable or genuinely racy *)

type verdict =
  | Parallel of {
      accumulate : (string * Sdfg_ir.Defs.wcr) list;
      privatize : string list;
    }
  | Serial of reason

type map_report = {
  mr_state : string;
  mr_entry : int;              (** node id of the map entry *)
  mr_name : string;            (** span-style name: "[i,j,k]" *)
  mr_params : string list;
  mr_schedule : Sdfg_ir.Defs.schedule;
  mr_top_level : bool;         (** not nested in another scope *)
  mr_containers : (string * access_class) list;
  mr_verdict : verdict;
}

val analyze_map : Sdfg_ir.Defs.sdfg -> Sdfg_ir.Defs.state -> int -> map_report
(** Analyze one map scope ([int] is the entry node id).
    @raise Invalid_argument if the node is not a map entry. *)

val analyze : Sdfg_ir.Defs.sdfg -> map_report list
(** Reports for every map of every state, in state order. *)

val verdict_of : Sdfg_ir.Defs.sdfg -> Sdfg_ir.Defs.state -> int -> verdict
(** [mr_verdict] of {!analyze_map} — the gate used by the compiled
    engine and the cost model. *)

val parallelizable : verdict -> bool
(** [true] for [Parallel _]. *)

val reason_of : verdict -> reason option

(** {2 Pipeline-parallel verdict}

    Gate for the streaming execution mode ([Exec.Instance.run_streaming]):
    may a state's consume scopes run as time-overlapping workers
    connected by bounded channels?  The batch executor runs consume
    scopes to completion in topological order; overlapping them is safe
    — and bit-identical to that schedule — when every stream has at
    most one producer stage and exactly one consumer (so each channel
    stays FIFO in the batch order), stages form no feedback cycle, no
    stage re-reads a stream beyond its popped element, no memlet subset
    depends on container data (stream lengths are time-varying under
    streaming), and the stages' non-stream footprints are provably
    disjoint (read-only sharing allowed).  Like the map verdict this is
    sound but incomplete: [No_pipeline] only costs performance. *)

type pipeline_stage = {
  pl_entry : int;            (** Consume_entry node id *)
  pl_stream : string;        (** stream the stage consumes *)
  pl_pushes : string list;   (** streams the stage pushes to *)
}

type pipeline_verdict =
  | Pipeline of pipeline_stage list
      (** stages in producer-before-consumer (batch topological) order *)
  | No_pipeline of reason

val analyze_pipeline :
  Sdfg_ir.Defs.sdfg -> Sdfg_ir.Defs.state -> pipeline_verdict
(** Analyze one state's consume scopes as pipeline stages. *)

val pipeline_code : pipeline_verdict -> string
(** ["pipeline"] or the rejection reason code. *)

val verdict_code : verdict -> string
(** ["parallel"], ["parallel-accumulate"], ["parallel-private"] or the
    serial reason code. *)

val pp_report : Format.formatter -> map_report -> unit
val pp_table : Format.formatter -> map_report list -> unit
