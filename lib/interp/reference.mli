(** Reference interpreter for SDFGs — an executable rendition of the
    operational semantics of Appendix A, and the semantic oracle of the
    test suite.

    Execution follows the state machine: run the current state's dataflow
    to quiescence in topological order, evaluate outgoing transitions,
    apply assignments, repeat until no condition holds.  Map scopes
    expand their symbolic ranges (Fig. 6b); consume scopes process
    streams dynamically until quiescence (Fig. 8); WCR memlets combine
    values with their resolution function; nested SDFGs run on aliased
    views of the outer memory.

    This is the bottom layer of the runtime.  It defines the runtime
    environment both engines share; the compiled engine builds its plans
    over it and falls back to these executors for constructs it does not
    compile, so instrumentation counters stay identical.  Which per-state
    executor runs is the environment's [exec_state] field, chosen by the
    driver ({!Exec}); nested SDFGs inherit it. *)

exception Runtime_error of string

val runtime_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** @raise Runtime_error always. *)

type stream_rt = {
  qs : Tasklang.Types.value Queue.t array;
  q_shape : int array;
  q_dtype : Tasklang.Types.dtype;
}

type container =
  | Tens of Tensor.t
  | Strm of stream_rt
  | Chan of Tasklang.Types.value Stream.t
      (** streaming mode only: a live bounded channel with blocking
          push/pop, substituted for [Strm] in pipeline workers' container
          tables *)

(** Instrumentation counters gathered during a run. *)
type stats = {
  mutable elements_moved : int;   (** memlet-bound element transfers *)
  mutable tasklet_execs : int;
  mutable map_iterations : int;
  mutable stream_pushes : int;
  mutable stream_pops : int;
  mutable states_executed : int;
  mutable wcr_writes : int;       (** write-conflict resolutions applied *)
}

val fresh_stats : unit -> stats

val add_stats : into:stats -> stats -> unit
(** Add every counter of the second record into [into]. *)

val reset_stats : stats -> unit

(** How the compiled engine picks a worker count for each
    [Cpu_multicore] map: [Fixed d] dispatches every Parallel-verdict map
    on [min d trips] workers; [Predictive cap] prices each map with
    {!Machine.Cost.Parallel} per invocation and uses the predicted
    profitable count, up to [cap] — a map that will not profit runs
    sequential by prediction, at sequential cost. *)
type domain_policy = Fixed of int | Predictive of int

val policy_name : domain_policy -> string
(** ["fixed"] / ["predictive"] — the report's [par_policy] field. *)

val policy_domains : domain_policy -> int
(** The worker-count ceiling: the pinned count under [Fixed], the cap
    under [Predictive].  What the compiled engine sizes replica sets
    by. *)

(** One [Cpu_multicore] map's standing policy record: registered when
    the map is planned, updated on every invocation.  Surfaced in the
    report's parallel section as [predicted_domains]/[policy_reason]. *)
type map_decision = {
  md_state : string;             (** state label *)
  md_node : int;                 (** map-entry node id within the state *)
  md_map : string;               (** map span name, ["[i,j]"] *)
  md_kind : string;              (** bulk-kernel kind, or ["closure"] *)
  md_verdict : string;           (** race verdict / Serial reason code *)
  md_forced : bool;              (** counted under [par_forced_seq] *)
  mutable md_domains : int;      (** worker count of the last invocation *)
  mutable md_reason : string;    (** policy reason of the last invocation *)
  mutable md_trips : int;        (** outer trip count, last invocation *)
  mutable md_invocations : int;
}

(** Multicore bookkeeping (compiled engine); shared down through nested
    SDFGs like [stats].  [par_chunks] depends on the domain count —
    determinism checks across domain counts compare {!stats}. *)
type par_stats = {
  mutable par_maps : int;        (** parallel map-scope invocations *)
  mutable par_chunks : int;      (** chunks dispatched to the pool *)
  mutable par_forced_seq : int;  (** Cpu_multicore maps forced sequential *)
  mutable par_decisions : map_decision list;
      (** per planned Cpu_multicore map, registration order reversed *)
}

val fresh_par : unit -> par_stats

val register_decision :
  par_stats ->
  state:string ->
  node:int ->
  map:string ->
  kind:string ->
  verdict:string ->
  forced:bool ->
  map_decision
(** Add (or replace, keyed by [(state, node)] — recompiles must not
    duplicate, and one state may hold two maps over the same span) the
    decision record for one map; called by the compiled engine at plan
    time. *)

val register_external :
  string -> ((string * Tasklang.Eval.binding) list -> unit) -> unit
(** Provide the native implementation for an [External] tasklet (paper
    Fig. 5), keyed by tasklet name.  The bindings give the connector
    accessors; the implementation must not touch anything else. *)

type cached_plan = { pl_version : int; pl_run : unit -> unit }
(** A state lowered by the compiled engine, tagged with the structural
    version ([st_version]) it was compiled at. *)

type env = {
  g : Sdfg_ir.Defs.sdfg;
  containers : (string, container) Hashtbl.t;
  symbols : (string, int) Hashtbl.t;
  stats : stats;
  collector : Obs.Collect.t;  (** wall-clock spans + plan coverage *)
  max_states : int;
  exec_state : env -> Sdfg_ir.Defs.state -> unit;
      (** runs one state's dataflow: {!exec_state}, or the compiled
          engine's; nested SDFGs inherit it *)
  plans : (int, cached_plan) Hashtbl.t;  (** state id -> cached plan *)
  policy : domain_policy;  (** how each parallel map picks its workers *)
  par : par_stats;
  kernels : bool;  (** allow bulk-kernel lowering of affine map bodies *)
}

val map_span_name : Sdfg_ir.Defs.map_info -> string
(** Span name of a map scope — shared by both engines so timing trees
    match shape-for-shape. *)

val scope_body : Sdfg_ir.Defs.state -> int -> int list
(** The direct children of a scope entry in topological order: the
    schedule of one map iteration or one consumed element. *)

val eval_expr : env -> (string * int) list -> Symbolic.Expr.t -> int
(** Evaluate under scope parameters, then interstate symbols, then
    rank-0 containers / stream lengths (data-dependent control flow). *)

val get_stream : env -> string -> stream_rt
(** The batch stream container [name].
    @raise Runtime_error when the environment binds no such container or
    it is not a batch stream. *)

val stream_queue : stream_rt -> int list -> Tasklang.Types.value Queue.t
(** The queue of a (possibly multi-dimensional) stream at an index. *)

val alloc_containers : env -> unit
(** Allocate every declared container the environment does not bind
    yet, zero-initialized at shapes concretized against its symbols. *)

val exec_nodes :
  env ->
  Sdfg_ir.Defs.state ->
  params:(string * int) list ->
  popped:(string * Tasklang.Types.value) list ->
  int list ->
  unit
(** Execute the given nodes of one scope level in the supplied order with
    the reference engine — the fallback path of compiled plans. *)

val exec_state : env -> Sdfg_ir.Defs.state -> unit
(** The reference per-state executor. *)

val run_state_machine : env -> unit
(** Run the graph's state machine from its start state, executing each
    state through [env.exec_state].
    @raise Runtime_error on stuck or ill-formed programs, or past
    [max_states] state executions. *)

val run_in : env -> unit
(** {!alloc_containers}, then {!run_state_machine}. *)

val report :
  env ->
  engine:string ->
  wall_s:float ->
  channels:Obs.Report.channel_stat list ->
  workers:Obs.Report.worker_stat list ->
  Obs.Report.t
(** Freeze a finished run into its report: counters, the collector's
    timing tree and plan coverage, and — when the run had something
    multicore to show — the parallel section.  A pipelined streaming run
    ([workers] non-empty) reports its worker count as its domains. *)
