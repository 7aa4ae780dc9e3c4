(** Compiled execution engine: plan once, run many.

    Lowers each state of an SDFG once into a plan of OCaml closures —
    native loop nests for map scopes over a flat [int array] symbol
    frame, closure-compiled tasklet bodies ({!Tasklang.Compile}) with
    connectors resolved to strided offset arithmetic, and range/subset
    endpoints compiled by {!Symbolic.Expr.compile}.  Constructs the plan
    does not compile (consume scopes, streams, nested SDFGs, external
    tasklets, reductions, copies, data-dependent symbols) fall back to
    the reference executors of {!Reference} node by node, so results
    and instrumentation counters are bit-identical to the reference
    engine.

    Selected by the driver: [Exec.Config.with_engine `Compiled] makes
    {!Exec} install {!exec_state} as the run's per-state executor and
    {!compile_stage} as its pipeline stage compiler. *)

val exec_state : Reference.env -> Sdfg_ir.Defs.state -> unit
(** Execute a state under the compiled engine, lowering it into a plan
    on first use and reusing the plan cached in [env.plans] while the
    environment's containers and the state's structure ([st_version])
    are unchanged. *)

val compile_stage :
  Reference.env ->
  Sdfg_ir.Defs.state ->
  int ->
  Sdfg_ir.Defs.consume_info ->
  (int -> Tasklang.Types.value -> unit) option
(** Compile one consume scope's body for a streaming pipeline worker,
    given the worker's private environment, the state, the consume
    entry's node id and its info.  [Some f] means [f pe v] runs the
    stage body for one popped element (kernel-lowered map bodies
    included); [None] keeps the worker on the reference body loop. *)

val compiled : [ `Reference | `Compiled ]
(** [`Compiled], the engine name {!Exec.Config.with_engine} takes. *)

val reference : [ `Reference | `Compiled ]
(** [`Reference]. *)
