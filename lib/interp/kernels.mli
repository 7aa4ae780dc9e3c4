(** Bulk strided kernels for affine map bodies — Engine v2 of the
    compiled engine.

    {!Plan.comp_map} lowers a map scope to a closure nest whose innermost
    level re-resolves every memlet through compiled subset views, one
    tasklet execution at a time.  For the (very common) map whose body is
    a single pure scalar tasklet with affine single-element subscripts
    over array containers, all of that per-iteration machinery computes
    an affine function of the loop counters — so the whole scope can run
    as a flat strided loop over the raw buffers instead.

    [recognize] performs that classification at plan time and returns a
    kernel whose launch entry:

    - evaluates each operand's base offset and per-dimension element
      strides from the compiled affine subscripts (once per launch);
    - bounds-checks the {e whole} iteration box against each operand's
      extents (affine subscripts attain their extrema at corners), which
      justifies unchecked buffer accesses in the loops;
    - bumps the instrumentation counters in bulk ([trips] tasklet
      executions move [n_inputs + 1] elements each) and, when the body
      tasklet is timed, records it as one span per launch counting
      [trips] executions, so the timing tree matches the closure nest's;
    - dispatches a shape-specialized loop (fill / copy / scale / axpy /
      elementwise binop / WCR-sum contraction / scaled sum) or a generic
      compiled-expression loop.

    Anything the launch cannot prove safe — a bounds violation anywhere
    in the box — defers to the [slow] closure (the ordinary nest), which
    reproduces the reference engine's error at the exact iteration with
    the exact partial counters.  Recognition failures return the reason
    code surfaced in plan coverage ({!Obs.Report}). *)

type t = {
  k_name : string;
    (** kernel kind, tallied in plan coverage: ["fill"], ["copy"],
        ["scale"], ["axpy"], ["ebinop"], ["contract"], ["ssum"],
        ["expr"] *)
  k_run :
    frame:int array ->
    bounds:int array ->
    lo:int ->
    hi:int ->
    step:int ->
    slow:(unit -> unit) ->
    unit;
    (** Launch over the evaluated bounds scratch of {!Plan.comp_map}
        ([bounds.(3d) / (3d+1) / (3d+2)] = lo/hi/step of dimension [d]);
        [lo]/[hi]/[step] override dimension 0, so a parallel chunk runs
        its slice by passing the chunk's endpoints.  [slow] must execute
        the same slice through the closure nest — it is called instead
        of the kernel when the launch-time bounds check fails. *)
}

val recognize :
  env:Reference.env ->
  st:Sdfg_ir.Defs.state ->
  entry:int ->
  info:Sdfg_ir.Defs.map_info ->
  comp:(Symbolic.Expr.t -> (int array -> int) option) ->
  (t, string) result
(** Classify the map scope rooted at node [entry] of state [st].  [comp]
    compiles a {e parameter-free} symbolic expression against the
    enclosing scope's frame ([None] when it mentions data-dependent or
    unbound names).  [Error reason] carries the closure-path reason code:
    ["no-dims"], ["body-shape"], ["external"], ["empty-body"],
    ["multi-stmt"], ["control-flow"], ["indexed-write"], ["indexed-read"],
    ["reads-output"], ["dup-conn"], ["out-mismatch"], ["connector-rank"],
    ["stream"], ["container"], ["rank"], ["non-affine"],
    ["non-affine-indirect"], ["symbols"], ["shadowed"], ["wcr"],
    ["body-expr"].

    ["non-affine-indirect"] refines the classifier's rejections: when a
    body the classifier would reject for its shape also subscripts data
    with a value {e derived from an input connector} (taint-tracked
    through local assignments and For bounds — spmv's [xin[cols[j]]],
    histogram's computed bin, gather/scatter over a mesh index array),
    the stable reason is indirection, not the surface shape.  A body
    whose only non-scalar accesses use map parameters, symbols or
    literal-bounded For variables keeps its original reason. *)
