(* Reference interpreter for SDFGs — an executable rendition of the
   operational semantics of Appendix A.

   Execution follows the state machine: run the dataflow of the current
   state to quiescence, evaluate outgoing transitions, apply assignments,
   continue until no condition holds (A.2.3).  Within a state, nodes are
   processed in topological order; Map scopes expand their symbolic range
   (Fig. 6b), Consume scopes dynamically process streams until the
   quiescence condition, and write-conflict-resolution memlets combine
   values with their resolution function.

   The interpreter doubles as the instrumentation source for the machine
   model: it counts data movement per memlet, tasklet executions and map
   iterations.

   This module is the bottom layer of the runtime and knows no other
   engine: the compiled engine builds on its environment and executors,
   and the driver ({!Exec}) chooses the per-state executor stored in
   [env.exec_state]. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
open Sdfg_ir
open Defs
open Tasklang.Types

exception Runtime_error = Errors.Runtime_error

let runtime_error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

(* --- runtime containers ------------------------------------------------ *)

type stream_rt = {
  qs : value Queue.t array;  (* flattened array of queues *)
  q_shape : int array;
  q_dtype : dtype;
}

type container =
  | Tens of Tensor.t
  | Strm of stream_rt
  | Chan of value Stream.t
      (* streaming mode only: the stream is a live bounded channel with
         blocking push/pop; workers see these in their container table
         in place of [Strm] queues *)

type stats = {
  mutable elements_moved : int;
  mutable tasklet_execs : int;
  mutable map_iterations : int;
  mutable stream_pushes : int;
  mutable stream_pops : int;
  mutable states_executed : int;
  mutable wcr_writes : int;
}

let fresh_stats () =
  { elements_moved = 0; tasklet_execs = 0; map_iterations = 0;
    stream_pushes = 0; stream_pops = 0; states_executed = 0; wcr_writes = 0 }

let add_stats ~into s =
  into.elements_moved <- into.elements_moved + s.elements_moved;
  into.tasklet_execs <- into.tasklet_execs + s.tasklet_execs;
  into.map_iterations <- into.map_iterations + s.map_iterations;
  into.stream_pushes <- into.stream_pushes + s.stream_pushes;
  into.stream_pops <- into.stream_pops + s.stream_pops;
  into.states_executed <- into.states_executed + s.states_executed;
  into.wcr_writes <- into.wcr_writes + s.wcr_writes

let reset_stats s =
  s.elements_moved <- 0;
  s.tasklet_execs <- 0;
  s.map_iterations <- 0;
  s.stream_pushes <- 0;
  s.stream_pops <- 0;
  s.states_executed <- 0;
  s.wcr_writes <- 0

(* How the compiled engine picks a worker count for each parallel map:
   [Fixed d] dispatches every Parallel-verdict map on [min d trips]
   workers (the PR 5 behavior behind [SDFG_DOMAINS] / [with_domains]);
   [Predictive cap] prices each map with {!Machine.Cost.Parallel} and
   runs it on the predicted-profitable count, up to [cap]. *)
type domain_policy = Fixed of int | Predictive of int

let policy_name = function Fixed _ -> "fixed" | Predictive _ -> "predictive"

(* The policy's worker-count ceiling: the pinned count or the cap. *)
let policy_domains = function Fixed d | Predictive d -> d

(* One Cpu_multicore map's standing policy record: registered at plan
   time, updated per invocation.  Lives for the whole run so the report
   can show what the policy decided and why. *)
type map_decision = {
  md_state : string;             (* state label *)
  md_node : int;                 (* map-entry node id within the state *)
  md_map : string;               (* map span name, "[i,j]" *)
  md_kind : string;              (* bulk-kernel kind, or "closure" *)
  md_verdict : string;           (* race verdict: "parallel", "parallel-accumulate",
                                    or the Serial reason code *)
  md_forced : bool;              (* counted under [par_forced_seq] *)
  mutable md_domains : int;      (* worker count of the last invocation *)
  mutable md_reason : string;    (* policy reason of the last invocation *)
  mutable md_trips : int;        (* outer trip count of the last invocation *)
  mutable md_invocations : int;
}

(* Multicore bookkeeping, shared down through nested SDFGs like [stats].
   [par_chunks] depends on the domain count; the determinism tests compare
   [stats], not these. *)
type par_stats = {
  mutable par_maps : int;        (* parallel map-scope invocations *)
  mutable par_chunks : int;      (* chunks dispatched to the pool *)
  mutable par_forced_seq : int;  (* Cpu_multicore maps forced sequential *)
  mutable par_decisions : map_decision list;  (* registration order, reversed *)
}

let fresh_par () =
  { par_maps = 0; par_chunks = 0; par_forced_seq = 0; par_decisions = [] }

(* Register (or re-register, after a structural-version recompile) the
   decision record for one map.  Keyed by (state, node id) — the span
   name alone is ambiguous when one state holds two maps over the same
   parameters — so a recompiled plan replaces its stale record instead
   of duplicating it. *)
let register_decision (par : par_stats) ~state ~node ~map ~kind ~verdict
    ~forced =
  let md =
    { md_state = state; md_node = node; md_map = map; md_kind = kind;
      md_verdict = verdict; md_forced = forced; md_domains = 1;
      md_reason = "unevaluated"; md_trips = 0; md_invocations = 0 }
  in
  par.par_decisions <-
    md
    :: List.filter
         (fun d -> not (d.md_state = state && d.md_node = node))
         par.par_decisions;
  md

(* External tasklet implementations (paper Fig. 5: tasklets written in the
   target language directly).  Keyed by tasklet name. *)
let externals : (string, (string * Tasklang.Eval.binding) list -> unit)
    Hashtbl.t =
  Hashtbl.create 8

let register_external name impl = Hashtbl.replace externals name impl

(* A state lowered by the compiled engine, tagged with the structural
   version it was compiled at so mutations invalidate it. *)
type cached_plan = { pl_version : int; pl_run : unit -> unit }

type env = {
  g : sdfg;
  containers : (string, container) Hashtbl.t;
  symbols : (string, int) Hashtbl.t;
  stats : stats;
  collector : Obs.Collect.t;  (* wall-clock spans + plan coverage *)
  max_states : int;
  exec_state : env -> state -> unit;
      (* runs one state's dataflow; nested SDFGs inherit it *)
  plans : (int, cached_plan) Hashtbl.t;  (* state id -> plan *)
  policy : domain_policy;  (* how each parallel map picks its worker count *)
  par : par_stats;
  kernels : bool;  (* let the compiled engine lower maps to bulk kernels *)
}

(* Span names are shared between engines so the timing trees match
   shape-for-shape: states use their label, maps their parameter list,
   consumes their stream, tasklets their name. *)
let map_span_name (m : map_info) =
  "[" ^ String.concat "," m.mp_params ^ "]"

(* Time [f] as a (kind, name) span when the collector's level and the
   construct's [flag] ask for it; otherwise run it untouched. *)
let timed env kind name ~flag f =
  let c = env.collector in
  if Obs.Collect.should_time c ~flag then begin
    let sp = Obs.Collect.enter c kind name in
    match f () with
    | r -> Obs.Collect.exit c sp; r
    | exception e -> Obs.Collect.exit c sp; raise e
  end
  else f ()

(* The direct children of scope [entry], in topological order: the
   schedule of one map iteration or one consumed element. *)
let scope_body st entry =
  let members = State.scope_nodes st entry in
  let parents = State.scope_parents st in
  let direct =
    List.filter (fun nid -> Hashtbl.find parents nid = Some entry) members
  in
  List.filter (fun nid -> List.mem nid direct) (State.topological_order st)

(* Symbol environment for symbolic evaluation: interstate symbols first,
   then rank-0 containers read as integers (data-dependent control flow,
   Fig. 10a), then scope parameters supplied by the caller. *)
let sym_lookup env params name =
  match List.assoc_opt name params with
  | Some v -> Some v
  | None -> (
    match Hashtbl.find_opt env.symbols name with
    | Some v -> Some v
    | None -> (
      match Hashtbl.find_opt env.containers name with
      | Some (Tens t) when Tensor.num_elements t = 1 ->
        (* rank-0 scalars and single-element views alike *)
        Some (to_int (Tensor.get_scalar t))
      | Some (Strm s) ->
        (* len(S): queue length is visible to quiescence conditions *)
        Some (Array.fold_left (fun acc q -> acc + Queue.length q) 0 s.qs)
      | Some (Chan c) ->
        (* transient under streaming; the pipeline verdict rejects any
           graph whose memlets depend on it *)
        Some (Stream.length c)
      | _ -> None))

let eval_expr env params e = Expr.eval (sym_lookup env params) e

let concretize env params subset =
  Subset.eval (sym_lookup env params) subset

let get_container env name =
  match Hashtbl.find_opt env.containers name with
  | Some c -> c
  | None -> runtime_error "no runtime container %S" name

let get_tensor env name =
  match get_container env name with
  | Tens t -> t
  | Strm _ | Chan _ ->
    runtime_error "container %S is a stream, expected array" name

let get_stream env name =
  match get_container env name with
  | Strm s -> s
  | Tens _ -> runtime_error "container %S is an array, expected stream" name
  | Chan _ ->
    runtime_error "container %S is a live channel, expected a batch stream"
      name

let stream_queue s idx =
  let li =
    match idx with
    | [] -> 0
    | _ ->
      let strides = Tensor.row_major_strides s.q_shape in
      List.fold_left ( + ) 0
        (List.mapi (fun d i -> i * strides.(d)) idx)
  in
  if li < 0 || li >= Array.length s.qs then
    runtime_error "stream queue index out of range";
  s.qs.(li)

let stream_total_len s =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 s.qs

(* --- write-back through a memlet --------------------------------------- *)

let apply_wcr env wcr t idx v =
  match wcr with
  | None -> Tensor.set t idx v
  | Some w ->
    env.stats.wcr_writes <- env.stats.wcr_writes + 1;
    let old_v = Tensor.get t idx in
    Tensor.set t idx (Wcr.apply w ~old_v ~new_v:v)

(* Step a row-major multi-index over [shape], last dimension fastest. *)
let advance shape idx =
  let rec carry d =
    if d >= 0 then begin
      idx.(d) <- idx.(d) + 1;
      if idx.(d) >= shape.(d) then begin
        idx.(d) <- 0;
        carry (d - 1)
      end
    end
  in
  carry (Array.length idx - 1)

(* Visit every element of [t] in row-major order. *)
let iter_elements t f =
  let idx = Array.make (Tensor.rank t) 0 in
  for _ = 1 to Tensor.num_elements t do
    f (Tensor.get t (Array.to_list idx));
    advance (Tensor.shape t) idx
  done

(* Combine [src] into [dst] element by element, both walked in row-major
   order, through the memlet's WCR (plain stores without one). *)
let combine_into env wcr ~src ~dst =
  let sidx = Array.make (Tensor.rank src) 0 in
  let didx = Array.make (Tensor.rank dst) 0 in
  for _ = 1 to Tensor.num_elements src do
    apply_wcr env wcr dst (Array.to_list didx)
      (Tensor.get src (Array.to_list sidx));
    advance (Tensor.shape src) sidx;
    advance (Tensor.shape dst) didx
  done

(* --- tasklet execution -------------------------------------------------- *)

(* Bind one input edge of a tasklet to an evaluator binding. *)
let bind_input env params (t : tasklet) (e : edge) :
    (string * Tasklang.Eval.binding) option =
  match e.e_dst_conn, e.e_memlet with
  | None, _ | _, None -> None
  | Some conn, Some m -> (
    let kconn =
      match List.find_opt (fun c -> c.k_name = conn) t.t_inputs with
      | Some c -> c
      | None -> runtime_error "tasklet %S: unknown connector %S" t.t_name conn
    in
    match get_container env m.m_data with
    | Tens tens ->
      let cview = Tensor.view_subset tens (concretize env params m.m_subset) in
      let cview =
        if kconn.k_rank < Tensor.rank cview then Tensor.squeeze cview
        else cview
      in
      env.stats.elements_moved <-
        env.stats.elements_moved + (if m.m_dynamic then 1 else Tensor.num_elements cview);
      if kconn.k_rank = 0 then
        Some (conn, Tasklang.Eval.Scalar (Tensor.get_scalar cview))
      else
        Some
          (conn,
           Tasklang.Eval.Buffer
             ((fun idx ->
                match idx with
                | [] -> Tensor.get_scalar cview
                | _ -> Tensor.get cview idx),
              fun _ _ ->
                runtime_error "tasklet %S: writing input connector %S"
                  t.t_name conn))
    | Strm s ->
      (* Reading a stream connector pops one element per access. *)
      Some
        (conn,
         Tasklang.Eval.Buffer
           ((fun _ ->
              let q = stream_queue s [] in
              if Queue.is_empty q then
                runtime_error "pop from empty stream %S" m.m_data
              else begin
                env.stats.stream_pops <- env.stats.stream_pops + 1;
                Queue.pop q
              end),
            fun _ _ ->
              runtime_error "tasklet %S: writing input connector %S" t.t_name
                conn))
    | Chan _ ->
      (* under streaming, the only stream read a worker may perform is
         the consume scope's popped element, delivered via [popped];
         the pipeline verdict rejects anything else *)
      runtime_error
        "tasklet %S: stream %S read beyond its popped element under \
         streaming execution"
        t.t_name m.m_data)

let bind_output env params (t : tasklet) (e : edge) :
    (string * Tasklang.Eval.binding) option =
  match e.e_src_conn, e.e_memlet with
  | None, _ | _, None -> None
  | Some conn, Some m -> (
    let kconn =
      match List.find_opt (fun c -> c.k_name = conn) t.t_outputs with
      | Some c -> c
      | None ->
        runtime_error "tasklet %S: unknown output connector %S" t.t_name conn
    in
    match get_container env m.m_data with
    | Tens tens ->
      let cview = Tensor.view_subset tens (concretize env params m.m_subset) in
      let cview =
        if kconn.k_rank < Tensor.rank cview then Tensor.squeeze cview
        else cview
      in
      let get idx =
        match idx with
        | [] -> Tensor.get_scalar cview
        | _ -> Tensor.get cview idx
      in
      let set idx v =
        env.stats.elements_moved <- env.stats.elements_moved + 1;
        match idx with
        | [] ->
          if Tensor.rank cview = 0 then
            apply_wcr env m.m_wcr cview [] v
          else apply_wcr env m.m_wcr cview (List.map (fun _ -> 0) (Array.to_list (Tensor.shape cview))) v
        | _ -> apply_wcr env m.m_wcr cview idx v
      in
      Some (conn, Tasklang.Eval.Buffer (get, set))
    | Strm s ->
      let q_idx =
        (* Address a specific queue of a multi-dimensional stream. *)
        if Array.length s.q_shape = 0 then []
        else
          concretize env params m.m_subset
          |> List.map (fun r -> r.Subset.c_start)
      in
      Some
        (conn,
         Tasklang.Eval.Buffer
           ((fun _ -> runtime_error "reading output stream connector %S" conn),
            fun _ v ->
              env.stats.stream_pushes <- env.stats.stream_pushes + 1;
              Queue.push v (stream_queue s q_idx)))
    | Chan c ->
      (* streaming: pushes block when the channel is full (backpressure) *)
      Some
        (conn,
         Tasklang.Eval.Buffer
           ((fun _ -> runtime_error "reading output stream connector %S" conn),
            fun _ v ->
              env.stats.stream_pushes <- env.stats.stream_pushes + 1;
              Stream.push c v)))

(* [popped] carries elements already dequeued by an enclosing consume
   scope: connector bindings for those streams deliver the popped value
   instead of popping again. *)
let exec_tasklet env params ~popped st nid (t : tasklet) =
  env.stats.tasklet_execs <- env.stats.tasklet_execs + 1;
  let in_bindings =
    List.filter_map
      (fun (e : edge) ->
        match e.e_dst_conn, e.e_memlet with
        | Some conn, Some m when List.mem_assoc m.m_data popped ->
          Some (conn, Tasklang.Eval.Scalar (List.assoc m.m_data popped))
        | _ -> bind_input env params t e)
      (State.in_edges st nid)
  in
  let out_bindings =
    List.filter_map (fun e -> bind_output env params t e)
      (State.out_edges st nid)
  in
  (* Scope parameters and interstate symbols are readable from tasklet
     code as scalars (e.g. the Mandelbrot tasklets read x and y); memlet
     bindings shadow them. *)
  let param_bindings =
    List.map (fun (p, v) -> (p, Tasklang.Eval.Scalar (I v))) params
    @ Hashtbl.fold
        (fun s v acc -> (s, Tasklang.Eval.Scalar (I v)) :: acc)
        env.symbols []
  in
  let bindings = in_bindings @ out_bindings @ param_bindings in
  match t.t_code with
  | Code code -> Tasklang.Eval.run ~bindings code
  | External _ -> (
    match Hashtbl.find_opt externals t.t_name with
    | Some impl -> impl bindings
    | None ->
      runtime_error
        "external tasklet %S has no registered native implementation"
        t.t_name)

(* --- copies between access nodes ----------------------------------------- *)

let exec_copy env params st (e : edge) =
  match e.e_memlet with
  | None -> ()
  | Some m -> (
    let src_name =
      match State.node st e.e_src with
      | Access d -> d
      | _ -> assert false
    in
    let dst_name =
      match State.node st e.e_dst with
      | Access d -> d
      | _ -> assert false
    in
    let src_subset, dst_subset =
      if String.equal m.m_data src_name then (Some m.m_subset, m.m_other)
      else (m.m_other, Some m.m_subset)
    in
    match get_container env src_name, get_container env dst_name with
    | Tens src_t, Tens dst_t ->
      let sview =
        match src_subset with
        | Some s -> Tensor.view_subset src_t (concretize env params s)
        | None -> src_t
      in
      let dview =
        match dst_subset with
        | Some s -> Tensor.view_subset dst_t (concretize env params s)
        | None -> dst_t
      in
      env.stats.elements_moved <-
        env.stats.elements_moved + Tensor.num_elements sview;
      if m.m_wcr = None then Tensor.copy_into ~src:sview ~dst:dview
      else combine_into env m.m_wcr ~src:sview ~dst:dview
    | Strm s, Tens dst_t ->
      (* Drain the stream into the array (stream "data" connector). *)
      let n = stream_total_len s in
      let li = ref 0 in
      Array.iter
        (fun q ->
          while not (Queue.is_empty q) do
            Tensor.set_linear dst_t (dst_t.Tensor.offset + !li) (Queue.pop q);
            incr li;
            env.stats.stream_pops <- env.stats.stream_pops + 1
          done)
        s.qs;
      env.stats.elements_moved <- env.stats.elements_moved + n
    | Tens src_t, Strm s ->
      iter_elements src_t (fun v ->
          Queue.push v (stream_queue s []);
          env.stats.stream_pushes <- env.stats.stream_pushes + 1);
      env.stats.elements_moved <-
        env.stats.elements_moved + Tensor.num_elements src_t
    | Strm src_s, Strm dst_s ->
      Array.iteri
        (fun i q ->
          while not (Queue.is_empty q) do
            Queue.push (Queue.pop q) dst_s.qs.(i mod Array.length dst_s.qs)
          done)
        src_s.qs
    | Tens src_t, Chan c ->
      (* streaming: feed the channel from an array, blocking on
         backpressure when it fills *)
      iter_elements src_t (fun v ->
          Stream.push c v;
          env.stats.stream_pushes <- env.stats.stream_pushes + 1);
      env.stats.elements_moved <-
        env.stats.elements_moved + Tensor.num_elements src_t
    | Chan _, _ | _, Chan _ ->
      runtime_error
        "copy %S -> %S reads a live channel outside its pipeline stage"
        src_name dst_name)

(* Copy-in edge: scope entry -> access node, memlet naming the source
   container on the far side of the scope (LocalStorage pattern,
   Fig. 11b).  Copies m_subset of m_data into this access's container at
   m_other (default: the whole transient). *)
let exec_scope_copy_in env params (e : edge) dst_name =
  match e.e_memlet with
  | Some m when not (String.equal m.m_data dst_name) -> (
    match get_container env m.m_data, get_container env dst_name with
    | Tens src_t, Tens dst_t ->
      let sview =
        Tensor.view_subset src_t (concretize env params m.m_subset)
      in
      let dview =
        match m.m_other with
        | Some s -> Tensor.view_subset dst_t (concretize env params s)
        | None -> dst_t
      in
      env.stats.elements_moved <-
        env.stats.elements_moved + Tensor.num_elements sview;
      Tensor.copy_into ~src:sview ~dst:dview
    | _ -> runtime_error "scope copy-in between incompatible containers")
  | _ -> ()

(* Commit edge: access node -> scope exit, memlet naming the destination
   container (AccumulateTransient / LocalStream patterns).  After a WCR
   commit the local accumulator is drained back to the identity so the
   next scope iteration accumulates afresh. *)
let exec_scope_copy_out env params (e : edge) src_name =
  match e.e_memlet with
  | Some m when not (String.equal m.m_data src_name) -> (
    match get_container env src_name, get_container env m.m_data with
    | Tens src_t, Tens dst_t ->
      let sview =
        match m.m_other with
        | Some s -> Tensor.view_subset src_t (concretize env params s)
        | None -> src_t
      in
      let dview =
        Tensor.view_subset dst_t (concretize env params m.m_subset)
      in
      env.stats.elements_moved <-
        env.stats.elements_moved + Tensor.num_elements sview;
      combine_into env m.m_wcr ~src:sview ~dst:dview;
      (* drain the accumulator *)
      (match m.m_wcr with
      | Some w -> (
        match Wcr.identity w (Tensor.dtype sview) with
        | Some id -> Tensor.fill sview id
        | None -> ())
      | None -> ())
    | Strm src_s, Strm dst_s ->
      (* local stream flushes into the global stream *)
      Array.iteri
        (fun i q ->
          while not (Queue.is_empty q) do
            Queue.push (Queue.pop q) dst_s.qs.(i mod Array.length dst_s.qs);
            env.stats.stream_pushes <- env.stats.stream_pushes + 1;
            env.stats.stream_pops <- env.stats.stream_pops + 1
          done)
        src_s.qs
    | Strm src_s, Tens dst_t ->
      (* drain a local stream into an array with WCR at the memlet subset *)
      let dview =
        Tensor.view_subset dst_t (concretize env params m.m_subset)
      in
      let li = ref 0 in
      Array.iter
        (fun q ->
          while not (Queue.is_empty q) do
            let v = Queue.pop q in
            env.stats.stream_pops <- env.stats.stream_pops + 1;
            (match m.m_wcr with
            | Some w ->
              let old_v = Tensor.get_linear dview dview.Tensor.offset in
              Tensor.set_linear dview dview.Tensor.offset
                (Wcr.apply w ~old_v ~new_v:v)
            | None ->
              Tensor.set_linear dview (dview.Tensor.offset + !li) v);
            incr li
          done)
        src_s.qs
    | Tens src_t, Strm dst_s ->
      iter_elements src_t (fun v ->
          Queue.push v (stream_queue dst_s []);
          env.stats.stream_pushes <- env.stats.stream_pushes + 1)
    | Tens src_t, Chan c ->
      (* streaming: commit a scope-local array into a live channel *)
      iter_elements src_t (fun v ->
          Stream.push c v;
          env.stats.stream_pushes <- env.stats.stream_pushes + 1)
    | Chan _, _ | _, Chan _ ->
      runtime_error
        "scope commit %S -> %S reads a live channel outside its pipeline \
         stage"
        src_name m.m_data)
  | _ -> ()

(* --- reduce nodes --------------------------------------------------------- *)

let exec_reduce env params st nid (r_wcr : wcr) (r_axes : int list option)
    (r_identity : value option) =
  (* Memlet-less edges are pure ordering dependencies (state fusion adds
     them to serialize across the seam) — only data edges count here. *)
  let data_edges = List.filter (fun (e : edge) -> e.e_memlet <> None) in
  let in_e =
    match data_edges (State.in_edges st nid) with
    | [ e ] -> e
    | es ->
      runtime_error "reduce node with %d input edges" (List.length es)
  in
  let out_e =
    match data_edges (State.out_edges st nid) with
    | [ e ] -> e
    | es ->
      runtime_error "reduce node with %d output edges" (List.length es)
  in
  let in_m = Option.get in_e.e_memlet and out_m = Option.get out_e.e_memlet in
  let src = get_tensor env in_m.m_data and dst = get_tensor env out_m.m_data in
  let sview = Tensor.view_subset src (concretize env params in_m.m_subset) in
  let dview = Tensor.view_subset dst (concretize env params out_m.m_subset) in
  let in_rank = Tensor.rank sview in
  let axes =
    match r_axes with
    | Some a -> a
    | None -> List.init in_rank (fun i -> i)  (* reduce everything *)
  in
  (match r_identity with
  | Some id -> Tensor.fill dview id
  | None -> ());
  let kept = List.filter (fun d -> not (List.mem d axes)) (List.init in_rank Fun.id) in
  let n = Tensor.num_elements sview in
  env.stats.elements_moved <- env.stats.elements_moved + n;
  let idx = Array.make in_rank 0 in
  for _ = 1 to n do
    let out_idx =
      if Tensor.rank dview = 0 then []
      else List.map (fun d -> idx.(d)) kept
    in
    let out_idx =
      (* output may have fewer dims than kept axes when out rank is 0 *)
      if List.length out_idx <> Tensor.rank dview then
        List.filteri (fun i _ -> i < Tensor.rank dview) out_idx
      else out_idx
    in
    let v = Tensor.get sview (Array.to_list idx) in
    let old_v = Tensor.get dview out_idx in
    Tensor.set dview out_idx (Wcr.apply r_wcr ~old_v ~new_v:v);
    advance (Tensor.shape sview) idx
  done

(* --- container allocation -------------------------------------------------- *)

(* Allocate every declared container [env] does not bind yet —
   transients, and non-transients the caller chose not to bind —
   zero-initialized at shapes concretized against [env]'s symbols. *)
let alloc_containers env =
  List.iter
    (fun (name, d) ->
      if not (Hashtbl.mem env.containers name) then begin
        let shape =
          List.map (fun e -> eval_expr env [] e) (ddesc_shape d)
          |> Array.of_list
        in
        match d with
        | Array a ->
          Hashtbl.replace env.containers name
            (Tens (Tensor.create a.a_dtype shape))
        | Stream s ->
          let nq = max 1 (Array.fold_left ( * ) 1 shape) in
          Hashtbl.replace env.containers name
            (Strm
               { qs = Array.init nq (fun _ -> Queue.create ());
                 q_shape = shape;
                 q_dtype = s.s_dtype })
      end)
    (Sdfg.descs env.g)

(* --- scope and state execution -------------------------------------------- *)

(* Execute the given nodes (already restricted to one scope level) in the
   supplied order. *)
let rec exec_nodes env st ~params ~popped nids =
  List.iter
    (fun nid ->
      match State.node st nid with
      | Access d ->
        (* Copy-in edges from an enclosing scope entry. *)
        List.iter
          (fun (e : edge) ->
            if State.is_scope_entry st e.e_src then
              exec_scope_copy_in env params e d)
          (State.in_edges st nid);
        (* Copies to adjacent access nodes, and commit edges through the
           scope exit. *)
        List.iter
          (fun (e : edge) ->
            match State.node st e.e_dst with
            | Access _ -> exec_copy env params st e
            | Map_exit | Consume_exit -> exec_scope_copy_out env params e d
            | _ -> ())
          (State.out_edges st nid)
      | Tasklet t ->
        timed env Obs.Collect.Tasklet t.t_name ~flag:t.t_instrument (fun () ->
            exec_tasklet env params ~popped st nid t)
      | Map_entry info ->
        timed env Obs.Collect.Map (map_span_name info)
          ~flag:info.mp_instrument (fun () ->
            exec_map env st ~params ~popped nid info)
      | Consume_entry info ->
        timed env Obs.Collect.Consume info.cs_stream
          ~flag:info.cs_instrument (fun () ->
            exec_consume env st ~params ~popped nid info)
      | Map_exit | Consume_exit -> ()
      | Reduce r -> exec_reduce env params st nid r.r_wcr r.r_axes r.r_identity
      | Nested_sdfg nest -> exec_nested env params st nid nest)
    nids

and exec_map env st ~params ~popped entry (info : map_info) =
  let body = scope_body st entry in
  let ranges =
    List.map2
      (fun p (r : Subset.range) ->
        let lo = eval_expr env params r.start in
        let hi = eval_expr env params r.stop in
        let step = eval_expr env params r.stride in
        if step <= 0 then
          runtime_error
            "map over parameter %S in state %S: non-positive stride %d"
            p st.st_label step;
        (lo, hi, step))
      info.mp_params info.mp_ranges
  in
  let rec iterate bound = function
    | [] ->
      env.stats.map_iterations <- env.stats.map_iterations + 1;
      exec_nodes env st ~params:(params @ bound) ~popped body
    | (p, (lo, hi, step)) :: rest ->
      let i = ref lo in
      while !i <= hi do
        iterate (bound @ [ (p, !i) ]) rest;
        i := !i + step
      done
  in
  iterate [] (List.combine info.mp_params ranges)

and exec_consume env st ~params ~popped entry (info : consume_info) =
  let body = scope_body st entry in
  let s = get_stream env info.cs_stream in
  (* Quiescence: stop when the stream is empty (paper Fig. 8's
     "len(S) = 0").  Processing is sequential but equivalent to any
     interleaving because tasklets only interact through memlets. *)
  let pe = ref 0 in
  let num_pes = max 1 (eval_expr env params info.cs_num_pes) in
  let guard = ref 0 in
  while stream_total_len s > 0 do
    incr guard;
    if !guard > 100_000_000 then
      runtime_error "consume scope on %S exceeded iteration budget"
        info.cs_stream;
    let q = stream_queue s [] in
    let v = Queue.pop q in
    env.stats.stream_pops <- env.stats.stream_pops + 1;
    env.stats.map_iterations <- env.stats.map_iterations + 1;
    let params' = params @ [ (info.cs_pe_param, !pe mod num_pes) ] in
    exec_nodes env st ~params:params'
      ~popped:((info.cs_stream, v) :: popped)
      body;
    incr pe
  done

and exec_nested env params st nid (nest : nested) =
  let inner = nest.n_sdfg in
  let in_edges = State.in_edges st nid and out_edges = State.out_edges st nid in
  let find_edge conn edges get_conn =
    List.find_opt (fun (e : edge) -> get_conn e = Some conn) edges
  in
  let inner_containers = Hashtbl.create 8 in
  let bind conn (e : edge) =
    match e.e_memlet with
    | None -> ()
    | Some m -> (
      match get_container env m.m_data with
      | Tens t ->
        let view = Tensor.view_subset t (concretize env params m.m_subset) in
        (* squeeze the outer window down to the inner container's rank *)
        let inner_rank = ddesc_rank (Sdfg.desc inner conn) in
        let view =
          if inner_rank < Tensor.rank view then Tensor.squeeze view else view
        in
        Hashtbl.replace inner_containers conn (Tens view)
      | Strm s -> Hashtbl.replace inner_containers conn (Strm s)
      | Chan _ ->
        runtime_error
          "nested SDFG input %S is a live channel; nested SDFGs do not \
           run inside pipeline stages"
          conn)
  in
  List.iter
    (fun conn ->
      match find_edge conn in_edges (fun e -> e.e_dst_conn) with
      | Some e -> bind conn e
      | None -> runtime_error "nested SDFG: unconnected input %S" conn)
    nest.n_inputs;
  List.iter
    (fun conn ->
      if not (Hashtbl.mem inner_containers conn) then
        match find_edge conn out_edges (fun e -> e.e_src_conn) with
        | Some e -> bind conn e
        | None -> runtime_error "nested SDFG: unconnected output %S" conn)
    nest.n_outputs;
  let inner_symbols =
    List.map
      (fun (s, e) -> (s, eval_expr env params e))
      nest.n_symbol_map
  in
  (* Inherit outer symbols not explicitly remapped. *)
  let inherited =
    Hashtbl.fold
      (fun k v acc ->
        if List.mem_assoc k inner_symbols then acc else (k, v) :: acc)
      env.symbols []
    @ List.filter (fun (k, _) -> not (List.mem_assoc k inner_symbols)) params
  in
  let inner_env =
    { env with g = inner; containers = inner_containers;
      symbols = Hashtbl.create 8; plans = Hashtbl.create 4 }
  in
  List.iter
    (fun (s, v) -> Hashtbl.replace inner_env.symbols s v)
    (inner_symbols @ inherited);
  run_in inner_env

(* --- top-level execution ---------------------------------------------------- *)

(* The reference per-state executor: [env.exec_state] under the
   reference engine. *)
and exec_state env (st : state) =
  env.stats.states_executed <- env.stats.states_executed + 1;
  let parents = State.scope_parents st in
  let order = State.topological_order st in
  let top = List.filter (fun nid -> Hashtbl.find parents nid = None) order in
  exec_nodes env st ~params:[] ~popped:[] top

and run_state_machine env =
  let current = ref (Sdfg.start_state env.g) in
  let continue_ = ref true in
  let steps = ref 0 in
  while !continue_ do
    incr steps;
    if !steps > env.max_states then
      runtime_error "SDFG %S exceeded max state executions (%d)"
        env.g.g_name env.max_states;
    (let st = !current in
     timed env Obs.Collect.State st.st_label ~flag:st.st_instrument
       (fun () -> env.exec_state env st));
    let outgoing = Sdfg.out_transitions env.g (State.id !current) in
    match
      List.find_opt
        (fun (t : istate_edge) ->
          Bexp.eval (sym_lookup env []) t.is_cond)
        outgoing
    with
    | None -> continue_ := false
    | Some t ->
      (* Evaluate all right-hand sides before assigning (simultaneous). *)
      let values =
        List.map (fun (s, e) -> (s, eval_expr env [] e)) t.is_assign
      in
      List.iter (fun (s, v) -> Hashtbl.replace env.symbols s v) values;
      current := Sdfg.state env.g t.is_dst
  done

(* Run [env]'s graph over the containers it already binds (the caller's
   arguments, or a nested SDFG's views of the outer memory), allocating
   the rest first. *)
and run_in env =
  alloc_containers env;
  run_state_machine env

let counters_of_stats (s : stats) : Obs.Report.counters =
  { Obs.Report.elements_moved = s.elements_moved;
    tasklet_execs = s.tasklet_execs;
    map_iterations = s.map_iterations;
    stream_pushes = s.stream_pushes;
    stream_pops = s.stream_pops;
    states_executed = s.states_executed;
    wcr_writes = s.wcr_writes }

(* Freeze the policy's per-map records for the report, in registration
   (= plan) order. *)
let frozen_decisions (par : par_stats) : Obs.Report.map_decision list =
  List.rev_map
    (fun d ->
      { Obs.Report.pm_state = d.md_state;
        pm_node = d.md_node;
        pm_map = d.md_map;
        pm_kind = d.md_kind;
        pm_verdict = d.md_verdict;
        pm_forced = d.md_forced;
        pm_domains = d.md_domains;
        pm_reason = d.md_reason;
        pm_trips = d.md_trips;
        pm_invocations = d.md_invocations })
    par.par_decisions

(* The report's multicore section.  A [Fixed] pin above 1 always gets
   one (the PR 5 contract); [Fixed 1] never does; [Predictive] gets one
   exactly when the run had something multicore to decide about — so
   sequential-by-nature programs keep their reports unchanged. *)
let parallel_section ~policy ~par_domains ~channels ~workers
    (par : par_stats) : Obs.Report.parallel option =
  let decisions = frozen_decisions par in
  let relevant =
    decisions <> [] || par.par_maps > 0 || par.par_chunks > 0
    || par.par_forced_seq > 0 || channels <> [] || workers <> []
  in
  let section () =
    { Obs.Report.par_domains;
      par_policy = policy_name policy;
      par_maps = par.par_maps;
      par_chunks = par.par_chunks;
      par_forced_seq = par.par_forced_seq;
      par_decisions = decisions;
      par_channels = channels;
      par_workers = workers }
  in
  match policy with
  | Fixed d when d > 1 -> Some (section ())
  | Fixed _ -> if workers <> [] then Some (section ()) else None
  | Predictive _ -> if relevant then Some (section ()) else None

(* The report of a finished run: counters, the collector's timing tree
   and plan coverage, and the multicore section.  A pipelined streaming
   run ([workers] non-empty) reports its worker count as its domains. *)
let report env ~engine ~wall_s ~channels ~workers =
  let par_domains =
    match workers with
    | [] -> policy_domains env.policy
    | _ -> List.length workers
  in
  let parallel =
    parallel_section ~policy:env.policy ~par_domains ~channels ~workers
      env.par
  in
  Obs.Report.of_collector ?parallel ~program:env.g.g_name ~engine ~wall_s
    ~counters:(counters_of_stats env.stats)
    env.collector
