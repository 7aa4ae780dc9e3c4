(** The execution driver — the one entry point above both engines.

    The runtime is three layers with no forward references and no
    registration at module load:

    - {!Reference}, the reference interpreter: an executable rendition
      of the operational semantics of Appendix A and the semantic oracle
      of the test suite;
    - {!Plan} (with {!Kernels}), the compiled engine, which lowers each
      state once onto the reference runtime environment and falls back
      to the reference executors for what it does not compile;
    - this module, which owns the tuning surface ({!Config}), selects
      the per-state executor from the config's engine, and runs a graph
      batch-style ({!run}), or through a reusable {!Instance}, streaming
      included.  Every entry point returns an {!Obs.Report.t}. *)

exception Runtime_error of string

(** How the compiled engine picks a worker count for each
    [Cpu_multicore] map: [Fixed d] dispatches every Parallel-verdict map
    on [min d trips] workers; [Predictive cap] prices each map with
    {!Machine.Cost.Parallel} per invocation and uses the predicted
    profitable count, up to [cap] — a map that will not profit runs
    sequential by prediction, at sequential cost. *)
type domain_policy = Reference.domain_policy =
  | Fixed of int
  | Predictive of int

val policy_name : domain_policy -> string
(** ["fixed"] / ["predictive"] — the report's [par_policy] field. *)

val register_external :
  string -> ((string * Tasklang.Eval.binding) list -> unit) -> unit
(** Provide the native implementation for an [External] tasklet (paper
    Fig. 5), keyed by tasklet name.  The bindings give the connector
    accessors; the implementation must not touch anything else. *)

type engine = [ `Reference | `Compiled ]
(** Which execution engine drives each state's dataflow.  [`Reference]
    interprets the graph directly and is the semantic oracle;
    [`Compiled] runs plans lowered once per state by {!Plan}
    (closure-compiled tasklets, slot-indexed symbol frames, compiled
    memlet offset arithmetic).  Both produce bit-identical results and
    instrumentation counters. *)

(** Execution-tuning configuration — the single surface for every knob
    that used to be a separate optional argument of {!run}.  Build one
    with the with-style setters off {!Config.default}:
    [Config.(default |> with_engine `Compiled |> with_domains 4)]. *)
module Config : sig
  type error =
    | Invalid_domains of int          (** [domains < 1] *)
    | Invalid_max_states of int       (** [max_states < 1] *)
    | Invalid_stream_chunk of int     (** [stream_chunk < 1] *)
    | Invalid_stream_capacity of int  (** [stream_capacity < 1] *)
    | Parse of string                 (** malformed JSON field *)

  val error_message : error -> string

  (** How the config asks for domains: [Denv] (the default) defers to
      the environment — [SDFG_DOMAINS] set pins that count, unset or
      empty selects the predictive per-map policy capped at the
      hardware's domain count; [Dfixed d] pins a count, beating the
      environment; [Dauto cap] forces the predictive policy with an
      optional explicit ceiling. *)
  type domains_spec = Denv | Dfixed of int | Dauto of int option

  type t = {
    engine : engine;                  (** default [`Reference] *)
    instrument : Obs.Collect.level;   (** default [Off] *)
    max_states : int;                 (** default 1,000,000 *)
    domains : domains_spec;
        (** precedence: explicit config > [SDFG_DOMAINS] > predictive.
            See {!resolved_policy}. *)
    kernels : bool;                   (** default [true] *)
    stream_chunk : int;
        (** streaming mode: output elements buffered per sink flush;
            default 64 *)
    stream_capacity : int option;
        (** streaming mode: overrides every channel's capacity; [None]
            (the default) uses each stream's declared [s_buffer], with
            256 standing in for unbounded or unevaluable buffers *)
  }

  val default : t

  val with_engine : engine -> t -> t
  val with_instrument : Obs.Collect.level -> t -> t
  val with_max_states : int -> t -> t

  val with_domains : int -> t -> t
  (** Pin the domain count explicitly (beats [SDFG_DOMAINS]). *)

  val with_auto_domains : ?cap:int -> t -> t
  (** Force the predictive per-map policy, optionally capped at [cap]
      (default: the hardware's domain count, [Pool.available ()]
      clamped to [[1, 64]]), regardless of [SDFG_DOMAINS]. *)

  val with_kernels : bool -> t -> t
  val with_stream_chunk : int -> t -> t
  val with_stream_capacity : int -> t -> t

  val validate : t -> (t, error) result
  (** Typed validation: [domains < 1], [max_states < 1],
      [stream_chunk < 1] and [stream_capacity < 1] are {!error}s here
      rather than raises downstream — the CLI and the serve protocol
      report them without exception handling.  Values above the pool
      maximum (64) are not errors; they clamp. *)

  val resolved_policy : t -> domain_policy
  (** The one resolver of the domain request: [Fixed] for [Dfixed] and
      for [Denv] with [SDFG_DOMAINS] set (unparsable garbage pins 1);
      [Predictive] for [Dauto] and for [Denv] with [SDFG_DOMAINS]
      unset/empty.  Counts and caps clamp to [[1, 64]]. *)

  val resolved_domains : t -> int
  (** The worker-count ceiling of {!resolved_policy}: the pinned count
      under [Fixed], the cap under [Predictive].  What the compiled
      engine sizes replica sets by. *)

  val to_json : t -> Obs.Json.t

  val of_json : Obs.Json.t -> (t, error) result
  (** Missing fields keep their defaults; present fields must be
      well-typed ([engine]/[instrument] as names, [max_states]/
      [stream_chunk]/[stream_capacity] integers, [kernels] boolean;
      [domains] an integer pin, [null] for the environment default, or
      the strings ["auto"] / ["auto:N"] for the predictive policy).
      Runs {!validate}. *)
end

val run :
  ?config:Config.t ->
  ?symbols:(string * int) list ->
  ?args:(string * Tensor.t) list ->
  Sdfg_ir.Sdfg.t ->
  Obs.Report.t
(** Execute an SDFG.  [symbols] binds the free symbols (sizes);
    [args] binds non-transient containers to caller-owned tensors,
    which are mutated in place (the array-based interface of §2.1).
    Containers not supplied are allocated zero-initialized.
    [config] carries every tuning knob (engine, instrumentation level,
    state budget, domain count, kernel lowering) — see {!Config};
    the default is {!Config.default}.
    The returned {!Obs.Report.t} carries the counters, the
    per-construct timing tree and — for the compiled engine — plan
    coverage and (at a resolved domain count > 1) the multicore
    summary.
    @raise Runtime_error on stuck or ill-formed programs, and on a
    config that fails {!Config.validate}. *)

(** Plan-once / run-many execution.  An instance pins one
    (graph, symbol valuation, config) triple, keeps the execution
    environment — including compiled plans and their kernel tensor
    bindings — alive across runs, and resets all mutable run state per
    request.  The unit cached by the serving layer. *)
module Instance : sig
  type t

  val create :
    ?config:Config.t ->
    ?symbols:(string * int) list ->
    Sdfg_ir.Sdfg.t ->
    t
  (** Validates the config, clones the graph (later caller mutation
      cannot invalidate cached plans) and allocates every container
      zero-initialized at shapes concretized against [symbols].  The
      instrumentation level is forced to [Off]: plan closures memoize
      their spans, so a timed instance would accumulate timing state
      across requests.  Plans are compiled lazily on first {!run}.
      @raise Runtime_error on an invalid config or unbound shape
      symbols. *)

  val run :
    ?args:(string * Tensor.t) list ->
    ?stream_args:(string * Tasklang.Types.value array) list ->
    t ->
    Obs.Report.t
  (** Execute once: copies [args] into the instance's containers
      (shape and dtype must match exactly), zero-fills the rest,
      resets symbols/counters/streams, runs, then copies results back
      into the caller's tensors ({!Exec.run}'s mutate-in-place
      contract).  [stream_args] pre-loads stream containers
      element-by-element before the state machine starts — the batch
      baseline {!run_streaming} is validated against.  Results and
      counters are bit-identical to a fresh {!Exec.run} with the same
      config, symbols and args.  Thread-safe: an internal lock
      serializes concurrent runs of one instance.
      @raise Runtime_error on unknown or mis-shaped argument
      containers. *)

  val run_streaming :
    ?args:(string * Tensor.t) list ->
    input:string ->
    ?output:string ->
    ?sink:(Tasklang.Types.value array -> unit) ->
    source:(unit -> Tasklang.Types.value array option) ->
    t ->
    Obs.Report.t
  (** Continuous-query execution: poll [source] for input chunks
      ([None] = end of stream) fed into the [input] stream, deliver
      [output]'s elements to [sink] in chunks of the config's
      [stream_chunk].  When {!Analysis.Races.analyze_pipeline} proves
      the graph a pipeline (single state; every stream single-producer,
      single-consumer; acyclic stages with disjoint non-stream
      footprints), consume scopes run as long-lived workers connected
      by bounded channels — producers block on full channels
      (backpressure), consumers on empty ones — and the report's
      parallel section carries per-channel depth/blocked-time and
      per-worker utilization.  Otherwise the source is drained fully
      and the graph runs once, batch-style, the sink receiving one
      final chunk.  Both paths are bit-identical to
      [run ~stream_args:[(input, elements)]] followed by
      {!stream_contents} on the output.
      @raise Runtime_error on unknown containers or a worker failure
      (first error rethrown after shutdown). *)

  val stream_contents : t -> string -> Tasklang.Types.value array
  (** Non-destructive peek at a stream container's buffered elements in
      pop order — how batch runs expose what {!run_streaming} hands to
      the sink.
      @raise Runtime_error if the container is missing or not a
      stream. *)

  val config : t -> Config.t
  val symbols : t -> (string * int) list
  val graph : t -> Sdfg_ir.Sdfg.t
end
