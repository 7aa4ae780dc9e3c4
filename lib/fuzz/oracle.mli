(** Differential oracles: properties every well-formed SDFG must satisfy.

    Each oracle runs a generated graph (under {!Gen.symbols_for} sizes
    and {!Interp.Profile.make_args} deterministic inputs) and checks one
    equivalence:

    - [Engine] — reference and compiled engines produce bit-identical
      output tensors.
    - [Roundtrip] — serialize → deserialize is a semantic no-op {e and}
      a syntactic fixpoint (printing the reloaded graph reproduces the
      original text byte-for-byte).
    - [Xform] — every applicable transformation candidate from the
      standard library ({!Transform.Std.all}) preserves program output
      (metamorphic soundness), and both engines still agree on the
      transformed graph.
    - [Opt] — the chain found by a short model-only {!Opt.Search} beam
      search replays cleanly and preserves program output.
    - [Parallel_crossval] — the compiled engine at 2 and 4 domains
      produces the same output tensors and instrumentation counters as
      compiled-sequential (which must itself be bit-equal to reference).
    - [Kernel_crossval] — three-way: the compiled engine's closure path
      ([~kernels:false]) is bit-equal to reference, and its bulk-kernel
      path ({!Interp.Kernels}) matches the closure path — outputs and
      instrumentation counters — at 1, 2 and 4 domains.
    - [Stream_crossval] — chunked streaming execution
      ({!Interp.Exec.Instance.run_streaming}) reproduces the batch
      baseline ([run ~stream_args] + [stream_contents]) on a
      continuous-query workload picked deterministically from
      {!Workloads.Streaming.all} (the generator does not emit stream
      containers), through both engines at 1, 2 and 4 domains, with no
      channel ever exceeding its capacity.

    Comparison policy: bit equality by default; when the graph contains
    a floating-point WCR memlet or Reduce node, transformation,
    parallel and kernel oracles fall back to
    {!Interp.Tensor.approx_equal}, since reordering a float reduction is
    legal but not bit-stable.  Engine and roundtrip oracles always
    require bit equality — they never reorder anything. *)

type kind =
  | Engine
  | Roundtrip
  | Xform
  | Opt
  | Parallel_crossval
  | Kernel_crossval
  | Stream_crossval

val kinds : kind list
(** All oracles, in the order the driver runs them. *)

val kind_name : kind -> string
val kind_of_string : string -> kind option

type status =
  | Pass of string  (** detail, e.g. ["14 applications checked"] *)
  | Skip of string  (** oracle not applicable to this graph *)
  | Fail of string  (** divergence — the message pinpoints it *)

val status_name : status -> string

val check : kind -> Sdfg_ir.Sdfg.t -> status
(** Run one oracle.  Never raises: engine crashes, validation failures
    after transformation, and serializer errors all surface as [Fail]. *)

val float_accumulation : Sdfg_ir.Sdfg.t -> bool
(** Whether the graph (including nested SDFGs) contains a float WCR
    memlet or float Reduce node — the trigger for approximate
    comparison in transformation oracles. *)
