(* The execution driver: the one entry point above both engines.

   The reference interpreter ({!Reference}) is the semantic oracle and
   the bottom layer; the compiled engine ({!Plan}) lowers states onto
   the same runtime environment.  This module sits above both.  It owns
   the tuning surface ({!Config}), builds a run's environment with the
   per-state executor its [engine] selects, runs the state machine —
   batch, streaming, or through a reusable {!Instance} — and freezes
   the result into an {!Obs.Report.t}.  No engine registers itself
   anywhere: the choice is a plain match on the config. *)

open Sdfg_ir
open Defs
open Tasklang.Types
open Reference

exception Runtime_error = Reference.Runtime_error

type domain_policy = Reference.domain_policy =
  | Fixed of int
  | Predictive of int

let policy_name = Reference.policy_name
let register_external = Reference.register_external

type engine = [ `Reference | `Compiled ]

let engine_name : engine -> string = function
  | `Reference -> "reference"
  | `Compiled -> "compiled"

let engine_of_string : string -> engine option = function
  | "reference" -> Some `Reference
  | "compiled" -> Some `Compiled
  | _ -> None

(* --- execution configuration --------------------------------------------- *)

(* The single tuning surface of the execution layer.  Everything that
   used to travel as a row of optional labelled arguments (engine,
   instrument, max_states, domains, kernels) is one record, so adding a
   knob no longer ripples a new [?arg] through Profile, Opt.Search, the
   CLI, the bench harness and the fuzz oracles — and so the serving
   layer can hash, serialize and validate a request's tuning in one
   place. *)
module Config = struct
  type error =
    | Invalid_domains of int
    | Invalid_max_states of int
    | Invalid_stream_chunk of int
    | Invalid_stream_capacity of int
    | Parse of string

  let error_message = function
    | Invalid_domains n -> Fmt.str "config: domains must be >= 1 (got %d)" n
    | Invalid_max_states n ->
      Fmt.str "config: max_states must be >= 1 (got %d)" n
    | Invalid_stream_chunk n ->
      Fmt.str "config: stream_chunk must be >= 1 (got %d)" n
    | Invalid_stream_capacity n ->
      Fmt.str "config: stream_capacity must be >= 1 (got %d)" n
    | Parse msg -> "config: " ^ msg

  (* How the config asks for domains — the one domain-request type.
     [Denv]: defer to SDFG_DOMAINS at run time — set, it pins that
     count; unset or empty, the predictive policy decides per map up to
     the hardware's domain count.  [Dfixed d] beats the environment.
     [Dauto cap] forces the predictive policy with an optional explicit
     ceiling. *)
  type domains_spec = Denv | Dfixed of int | Dauto of int option

  type t = {
    engine : engine;
    instrument : Obs.Collect.level;
    max_states : int;
    domains : domains_spec;
        (* precedence: explicit config > SDFG_DOMAINS > predictive *)
    kernels : bool;
    stream_chunk : int;
        (* streaming mode: output elements buffered per sink flush *)
    stream_capacity : int option;
        (* streaming mode: channel capacity override; None means each
           stream's declared [s_buffer] (default 256 when unbounded) *)
  }

  let default =
    { engine = `Reference; instrument = Obs.Collect.Off;
      max_states = 1_000_000; domains = Denv; kernels = true;
      stream_chunk = 64; stream_capacity = None }

  (* With-style setters, argument-last so they chain off [default]:
     [Config.(default |> with_engine `Compiled |> with_domains 4)]. *)
  let with_engine engine c = { c with engine }
  let with_instrument instrument c = { c with instrument }
  let with_max_states max_states c = { c with max_states }
  let with_domains d c = { c with domains = Dfixed d }
  let with_auto_domains ?cap c = { c with domains = Dauto cap }
  let with_kernels kernels c = { c with kernels }
  let with_stream_chunk stream_chunk c = { c with stream_chunk }
  let with_stream_capacity n c = { c with stream_capacity = Some n }

  let validate c =
    if c.max_states < 1 then Error (Invalid_max_states c.max_states)
    else if c.stream_chunk < 1 then Error (Invalid_stream_chunk c.stream_chunk)
    else
      match c.domains, c.stream_capacity with
      | (Dfixed n | Dauto (Some n)), _ when n < 1 -> Error (Invalid_domains n)
      | _, Some n when n < 1 -> Error (Invalid_stream_capacity n)
      | _ -> Ok c

  (* The one resolver of the domain request: an explicit setting first
     (clamped to the pool maximum), then the SDFG_DOMAINS environment
     variable (unparsable garbage pins 1), then the predictive policy
     capped at the hardware's domain count. *)
  let resolved_policy c : domain_policy =
    let clamp n = max 1 (min n 64) in
    let hardware () = Predictive (clamp (Pool.available ())) in
    match c.domains with
    | Dfixed n -> Fixed (clamp n)
    | Dauto (Some n) -> Predictive (clamp n)
    | Dauto None -> hardware ()
    | Denv -> (
      match Option.map String.trim (Sys.getenv_opt "SDFG_DOMAINS") with
      | None | Some "" -> hardware ()
      | Some s ->
        Fixed (clamp (Option.value (int_of_string_opt s) ~default:1)))

  let resolved_domains c = policy_domains (resolved_policy c)

  let to_json c : Obs.Json.t =
    Obs.Json.Obj
      [ ("engine", Obs.Json.Str (engine_name c.engine));
        ("instrument", Obs.Json.Str (Obs.Collect.level_name c.instrument));
        ("max_states", Obs.Json.Int c.max_states);
        ("domains",
         (match c.domains with
         | Dfixed n -> Obs.Json.Int n
         | Denv -> Obs.Json.Null
         | Dauto None -> Obs.Json.Str "auto"
         | Dauto (Some n) -> Obs.Json.Str (Fmt.str "auto:%d" n)));
        ("kernels", Obs.Json.Bool c.kernels);
        ("stream_chunk", Obs.Json.Int c.stream_chunk);
        ("stream_capacity",
         (match c.stream_capacity with
         | Some n -> Obs.Json.Int n
         | None -> Obs.Json.Null)) ]

  (* Missing fields keep their defaults; present fields must be
     well-typed.  [Null] for [domains] means "defer to the environment",
     mirroring {!to_json}. *)
  let of_json (j : Obs.Json.t) : (t, error) result =
    let field name update c =
      match Obs.Json.member name j with
      | None | Some Obs.Json.Null -> Ok c
      | Some v -> update v c
    in
    let ( let* ) = Result.bind in
    let str name v =
      match Obs.Json.to_string_opt v with
      | Some s -> Ok s
      | None -> Error (Parse (Fmt.str "%s must be a string" name))
    in
    let int name v =
      match Obs.Json.to_int_opt v with
      | Some n -> Ok n
      | None -> Error (Parse (Fmt.str "%s must be an integer" name))
    in
    let* c =
      field "engine"
        (fun v c ->
          let* s = str "engine" v in
          match engine_of_string s with
          | Some e -> Ok { c with engine = e }
          | None -> Error (Parse (Fmt.str "unknown engine %S" s)))
        default
    in
    let* c =
      field "instrument"
        (fun v c ->
          let* s = str "instrument" v in
          match Obs.Collect.level_of_string s with
          | Some l -> Ok { c with instrument = l }
          | None -> Error (Parse (Fmt.str "unknown instrument level %S" s)))
        c
    in
    let* c =
      field "max_states"
        (fun v c ->
          let* n = int "max_states" v in
          Ok { c with max_states = n })
        c
    in
    let* c =
      field "domains"
        (fun v c ->
          match v with
          | Obs.Json.Str "auto" -> Ok { c with domains = Dauto None }
          | Obs.Json.Str s
            when String.length s > 5 && String.sub s 0 5 = "auto:" -> (
            let rest = String.sub s 5 (String.length s - 5) in
            match int_of_string_opt rest with
            | Some n -> Ok { c with domains = Dauto (Some n) }
            | None ->
              Error (Parse (Fmt.str "bad domains cap in %S" s)))
          | _ ->
            let* n = int "domains" v in
            Ok { c with domains = Dfixed n })
        c
    in
    let* c =
      field "kernels"
        (fun v c ->
          match v with
          | Obs.Json.Bool b -> Ok { c with kernels = b }
          | _ -> Error (Parse "kernels must be a boolean"))
        c
    in
    let* c =
      field "stream_chunk"
        (fun v c ->
          let* n = int "stream_chunk" v in
          Ok { c with stream_chunk = n })
        c
    in
    let* c =
      field "stream_capacity"
        (fun v c ->
          let* n = int "stream_capacity" v in
          Ok { c with stream_capacity = Some n })
        c
    in
    validate c
end

(* --- runs ----------------------------------------------------------------- *)

(* A fresh run environment for [config]: the per-state executor its
   engine selects, its resolved domain policy, [symbols] bound and no
   containers yet.  Rejects a config that fails {!Config.validate}. *)
let make_env (config : Config.t) ~symbols (g : sdfg) =
  (match Config.validate config with
  | Ok _ -> ()
  | Error e -> runtime_error "%s" (Config.error_message e));
  let env =
    { g; containers = Hashtbl.create 16; symbols = Hashtbl.create 8;
      stats = fresh_stats ();
      collector = Obs.Collect.create config.Config.instrument;
      max_states = config.Config.max_states;
      exec_state =
        (match config.Config.engine with
        | `Reference -> Reference.exec_state
        | `Compiled -> Plan.exec_state);
      plans = Hashtbl.create 4; policy = Config.resolved_policy config;
      par = fresh_par (); kernels = config.Config.kernels }
  in
  List.iter (fun (s, v) -> Hashtbl.replace env.symbols s v) symbols;
  env

(* Main entry point: run [g] on the given tensors and symbol values.
   Non-transient containers not supplied in [args] are allocated
   zero-initialized and discarded.  The returned report freezes the
   counters, the instrumentation timing tree (per the config's
   [instrument] level), the compiled engine's plan coverage and — when
   the resolved domain count exceeds 1 — the multicore summary. *)
let run ?(config = Config.default) ?(symbols = []) ?(args = [])
    (g : sdfg) : Obs.Report.t =
  let env = make_env config ~symbols g in
  List.iter
    (fun (name, t) -> Hashtbl.replace env.containers name (Tens t))
    args;
  let t0 = Obs.Collect.now () in
  run_in env;
  let wall_s = Obs.Collect.now () -. t0 in
  report env ~engine:(engine_name config.Config.engine) ~wall_s ~channels:[]
    ~workers:[]

(* --- streaming execution --------------------------------------------------- *)

(* Channel capacity for one stream: an explicit config override wins,
   then the stream's declared [s_buffer] (evaluated against the run's
   symbols), then 256 for unbounded/unevaluable buffers.  Clamped >= 1 —
   a bounded channel is what produces backpressure. *)
let channel_capacity env (config : Config.t) name =
  match config.Config.stream_capacity with
  | Some n -> max 1 n
  | None -> (
    match (if Sdfg.has_desc env.g name then Some (Sdfg.desc env.g name) else None) with
    | Some (Stream s) ->
      let n = try eval_expr env [] s.s_buffer with _ -> 0 in
      if n >= 1 then n else 256
    | _ -> 256)

(* Run [env]'s graph in streaming mode.  [source] is polled for input
   chunks ([None] = end of stream) fed into [input]'s channel; every
   consume scope becomes a long-lived worker connected to its peers by
   bounded channels; [sink] receives output chunks popped from [output].

   The overlapped schedule only engages when {!Analysis.Races.analyze_pipeline}
   proves it bit-identical to the batch schedule (single state, each
   channel single-producer single-consumer, stages acyclic with disjoint
   non-stream footprints).  Anything else degrades to batch emulation:
   drain the source fully into the input stream, run the state machine
   once, hand the whole output stream to the sink in one chunk.  Returns
   per-channel and per-worker statistics — empty on the degraded path. *)
let run_streaming_env env (config : Config.t) ~input ~output ~source ~sink :
    Obs.Report.channel_stat list * Obs.Report.worker_stat list =
  let degrade () =
    (match get_container env input with
    | Strm s ->
      let rec feed () =
        match source () with
        | None -> ()
        | Some chunk ->
          Array.iter
            (fun v ->
              env.stats.stream_pushes <- env.stats.stream_pushes + 1;
              Queue.push v (stream_queue s []))
            chunk;
          feed ()
      in
      feed ()
    | _ -> runtime_error "streaming: input %S is not a stream" input);
    run_state_machine env;
    (match output with
    | None -> ()
    | Some out -> (
      match get_container env out with
      | Strm s ->
        let buf = ref [] in
        Array.iter
          (fun q ->
            while not (Queue.is_empty q) do
              buf := Queue.pop q :: !buf
            done)
          s.qs;
        sink (Array.of_list (List.rev !buf))
      | _ -> runtime_error "streaming: output %S is not a stream" out));
    ([], [])
  in
  if Sdfg.num_states env.g <> 1 then degrade ()
  else
    let st = Sdfg.start_state env.g in
    match Analysis.Races.analyze_pipeline env.g st with
    | Analysis.Races.No_pipeline _ -> degrade ()
    | Analysis.Races.Pipeline stages ->
      let consumed s =
        List.exists
          (fun stg -> String.equal stg.Analysis.Races.pl_stream s)
          stages
      in
      let pushed s =
        List.exists (fun stg -> List.mem s stg.Analysis.Races.pl_pushes) stages
      in
      let chan_names =
        List.sort_uniq String.compare
          (input
          :: List.concat_map
               (fun stg ->
                 stg.Analysis.Races.pl_stream :: stg.Analysis.Races.pl_pushes)
               stages)
      in
      let terminals = List.filter (fun n -> not (consumed n)) chan_names in
      let n_workers = 1 + List.length stages + List.length terminals in
      let eligible =
        consumed input
        && not (pushed input)
        && (match output with
           | None -> true
           | Some o -> pushed o && not (consumed o))
        && n_workers <= 64
      in
      if not eligible then degrade ()
      else begin
        (* Force the per-state caches (topological order, scope tree) on
           this domain: they memoize lazily and are not thread-safe. *)
        ignore (State.topological_order st);
        ignore (State.scope_parents st);
        List.iter
          (fun stg -> ignore (State.scope_nodes st stg.Analysis.Races.pl_entry))
          stages;
        let chans =
          List.map
            (fun n ->
              ( n,
                Stream.create ~name:n ~capacity:(channel_capacity env config n)
                  () ))
            chan_names
        in
        let chan n = List.assoc n chans in
        let close_all () = List.iter (fun (_, c) -> Stream.close c) chans in
        (* Workers see streams as live channels; tensors are shared — the
           pipeline verdict proved the stages' footprints disjoint. *)
        let stbl = Hashtbl.copy env.containers in
        List.iter (fun (n, c) -> Hashtbl.replace stbl n (Chan c)) chans;
        let err_lock = Mutex.create () in
        let first_err = ref None in
        let record e =
          Mutex.lock err_lock;
          (match !first_err with
          | None -> first_err := Some e
          | Some _ -> ());
          Mutex.unlock err_lock;
          close_all ()
        in
        (* A worker hitting a closed channel is being told to shut down
           (EOS or another worker's failure): exit silently. *)
        let guard f () = try f () with Stream.Closed _ -> () | e -> record e in
        let in_ch = chan input in
        let feeder_stats = fresh_stats () in
        let feeder_elems = ref 0 and feeder_busy = ref 0.0 in
        let feeder () =
          let rec loop () =
            let t0 = Obs.Collect.now () in
            let chunk = source () in
            feeder_busy := !feeder_busy +. (Obs.Collect.now () -. t0);
            match chunk with
            | None -> Stream.close in_ch
            | Some chunk ->
              Array.iter
                (fun v ->
                  feeder_stats.stream_pushes <-
                    feeder_stats.stream_pushes + 1;
                  incr feeder_elems;
                  Stream.push in_ch v)
                chunk;
              loop ()
          in
          loop ()
        in
        let stage_worker stg =
          let entry = stg.Analysis.Races.pl_entry in
          let info =
            match State.node st entry with
            | Consume_entry i -> i
            | _ -> assert false
          in
          (* exactly the batch executor's [exec_consume] schedule *)
          let body = scope_body st entry in
          let wstats = fresh_stats () in
          let wenv =
            (* one domain: the pool is not reentrant, so inner maps run
               sequentially inside a pipeline stage *)
            { env with stats = wstats; containers = stbl; policy = Fixed 1;
              par = fresh_par (); plans = Hashtbl.create 1 }
          in
          let st_in = chan stg.Analysis.Races.pl_stream in
          let st_out = List.map chan stg.Analysis.Races.pl_pushes in
          let elems = ref 0 and busy = ref 0.0 in
          (* compile here, on the main domain — plan construction records
             coverage into the shared collector *)
          let num_pes = max 1 (eval_expr wenv [] info.cs_num_pes) in
          let compiled =
            match config.Config.engine with
            | `Compiled -> Plan.compile_stage wenv st entry info
            | `Reference -> None
          in
          let task () =
            let pe = ref 0 in
            let rec loop () =
              match Stream.pop st_in with
              | None -> List.iter Stream.close st_out
              | Some v ->
                wstats.stream_pops <- wstats.stream_pops + 1;
                wstats.map_iterations <- wstats.map_iterations + 1;
                let t0 = Obs.Collect.now () in
                (match compiled with
                | Some f -> f (!pe mod num_pes) v
                | None ->
                  exec_nodes wenv st
                    ~params:[ (info.cs_pe_param, !pe mod num_pes) ]
                    ~popped:[ (info.cs_stream, v) ]
                    body);
                busy := !busy +. (Obs.Collect.now () -. t0);
                incr elems;
                incr pe;
                loop ()
            in
            loop ()
          in
          ("consume:" ^ stg.Analysis.Races.pl_stream, task, Some wstats, elems,
           busy)
        in
        let drainer name =
          let ch = chan name in
          let elems = ref 0 and busy = ref 0.0 in
          let is_out =
            match output with Some o -> String.equal o name | None -> false
          in
          let task () =
            if is_out then begin
              let buf = ref [] and count = ref 0 in
              let flush () =
                if !count > 0 then begin
                  let arr = Array.of_list (List.rev !buf) in
                  buf := [];
                  count := 0;
                  let t0 = Obs.Collect.now () in
                  sink arr;
                  busy := !busy +. (Obs.Collect.now () -. t0)
                end
              in
              let rec loop () =
                match Stream.pop ch with
                | None -> flush ()
                | Some v ->
                  buf := v :: !buf;
                  incr count;
                  incr elems;
                  if !count >= config.Config.stream_chunk then flush ();
                  loop ()
              in
              loop ()
            end
            else
              (* unconsumed stream: drain and discard so producers never
                 block permanently on a full channel nobody reads *)
              let rec loop () =
                match Stream.pop ch with
                | None -> ()
                | Some _ ->
                  incr elems;
                  loop ()
              in
              loop ()
          in
          ("drain:" ^ name, task, None, elems, busy)
        in
        let workers =
          (("feed:" ^ input, feeder, Some feeder_stats, feeder_elems,
            feeder_busy)
          :: List.map stage_worker stages)
          @ List.map drainer terminals
        in
        let tasks = Array.of_list workers in
        let t0 = Obs.Collect.now () in
        Pool.run ~domains:(Array.length tasks) (fun i ->
            let _, task, _, _, _ = tasks.(i) in
            guard task ());
        let wall = Obs.Collect.now () -. t0 in
        (match !first_err with Some e -> raise e | None -> ());
        (* Deterministic counter merge: feeder first, then stages in
           pipeline order.  Drainer pops are bookkeeping, not program
           semantics, and stay out of the counters (the batch path's
           sink hand-off does not count pops either). *)
        Array.iter
          (fun (_, _, stats, _, _) ->
            Option.iter (add_stats ~into:env.stats) stats)
          tasks;
        env.stats.states_executed <- env.stats.states_executed + 1;
        let channels =
          List.map
            (fun (_, c) ->
              let s = Stream.stats c in
              { Obs.Report.pc_name = s.Stream.ch_name;
                pc_capacity = s.Stream.ch_capacity;
                pc_pushes = s.Stream.ch_pushes;
                pc_pops = s.Stream.ch_pops;
                pc_depth_hwm = s.Stream.ch_depth_hwm;
                pc_push_blocked_s = s.Stream.ch_push_blocked_s;
                pc_pop_blocked_s = s.Stream.ch_pop_blocked_s })
            chans
        in
        let worker_stats =
          List.map
            (fun (name, _, _, elems, busy) ->
              { Obs.Report.pw_name = name;
                pw_elements = !elems;
                pw_busy_s = !busy;
                pw_wall_s = wall })
            (Array.to_list tasks)
        in
        (channels, worker_stats)
      end

(* --- reusable instances (plan-once / run-many) ----------------------------- *)

(* A persistent execution environment for one (graph, symbol valuation,
   config) triple.  Compiled plans close over their environment — the
   stats record, the collector, the container table, even specific
   tensors for recognized bulk kernels — so reuse means keeping ONE
   environment alive and resetting its mutable contents per run, not
   rebuilding it.  This is the unit the serving layer caches: validate
   once, plan on first run, then every subsequent run pays only
   copy-in + execute + copy-out. *)
module Instance = struct
  type t = {
    i_env : env;  (* its policy is resolved at creation, frozen *)
    i_config : Config.t;
    i_symbols : (string * int) list;
    i_lock : Mutex.t;  (* an instance runs one request at a time *)
  }

  let create ?(config = Config.default) ?(symbols = []) (g : sdfg) : t =
    (* Timing spans memoize into plan closures at compile time, so a
       timed plan would accumulate spans across requests; instances are
       counters-only. *)
    let config = { config with Config.instrument = Obs.Collect.Off } in
    (* cloned: isolated from later caller mutation *)
    let env = make_env config ~symbols (Sdfg.clone g) in
    (* Allocate every container up front so plans and recognized kernels
       bind to tensors that stay stable across runs.  Shapes concretize
       against the instance's symbol valuation, which is why the
       valuation is part of the instance's identity (and of the serve
       cache key). *)
    alloc_containers env;
    { i_env = env; i_config = config; i_symbols = symbols;
      i_lock = Mutex.create () }

  let config inst = inst.i_config
  let symbols inst = inst.i_symbols
  let graph inst = inst.i_env.g

  let reset_par (p : par_stats) =
    p.par_maps <- 0;
    p.par_chunks <- 0;
    p.par_forced_seq <- 0;
    (* decision records are plan-scoped (registered at compile time, the
       plans survive the reset), so keep them and zero the per-run
       tallies *)
    List.iter
      (fun d ->
        d.md_invocations <- 0;
        d.md_trips <- 0)
      p.par_decisions

  (* Shared per-run preparation: validate the request's containers,
     restore the instance's symbol valuation, zero the counters, copy
     the request's tensors in, zero-fill unsupplied tensors exactly as
     [run_in] zero-allocates them, and empty every stream. *)
  let prepare (inst : t) args =
    let env = inst.i_env in
    List.iter
      (fun (name, _) ->
        if not (Hashtbl.mem env.containers name) then
          runtime_error "instance %S: unknown argument container %S"
            env.g.g_name name)
      args;
    Hashtbl.reset env.symbols;
    List.iter
      (fun (s, v) -> Hashtbl.replace env.symbols s v)
      inst.i_symbols;
    reset_stats env.stats;
    reset_par env.par;
    Hashtbl.iter
      (fun name c ->
        match c with
        | Tens t -> (
          match List.assoc_opt name args with
          | Some src ->
            if
              Tensor.shape src <> Tensor.shape t
              || Tensor.dtype src <> Tensor.dtype t
            then
              runtime_error
                "instance %S: argument %S does not match the instance's \
                 shape/dtype for that container"
                env.g.g_name name
            else Tensor.copy_into ~src ~dst:t
          | None -> Tensor.fill t (Tasklang.Types.zero_of (Tensor.dtype t)))
        | Strm s -> Array.iter Queue.clear s.qs
        | Chan _ ->
          (* instances allocate [Strm] only; a [Chan] never outlives the
             streaming run that created it *)
          assert false)
      env.containers

  let copy_out env args =
    List.iter
      (fun (name, dst) ->
        match Hashtbl.find_opt env.containers name with
        | Some (Tens src) -> Tensor.copy_into ~src ~dst
        | _ -> ())
      args

  (* One run: copy the request's tensors in, reset every piece of
     mutable run state the plans close over, execute, copy results back
     into the caller's tensors (preserving {!run}'s mutate-in-place
     contract).  Bit-identical to a fresh [run] with the same config.
     [stream_args] pre-loads stream containers element-by-element before
     the state machine starts — the batch baseline the streaming
     cross-validation oracle compares against. *)
  let run ?(args = []) ?(stream_args = []) (inst : t) : Obs.Report.t =
    Mutex.lock inst.i_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock inst.i_lock) @@ fun () ->
    let env = inst.i_env in
    prepare inst args;
    List.iter
      (fun (name, (vs : value array)) ->
        match Hashtbl.find_opt env.containers name with
        | Some (Strm s) ->
          Array.iter
            (fun v ->
              env.stats.stream_pushes <- env.stats.stream_pushes + 1;
              Queue.push v (stream_queue s []))
            vs
        | _ ->
          runtime_error "instance %S: stream argument %S is not a stream"
            env.g.g_name name)
      stream_args;
    let t0 = Obs.Collect.now () in
    run_state_machine env;
    let wall_s = Obs.Collect.now () -. t0 in
    copy_out env args;
    report env ~engine:(engine_name inst.i_config.Config.engine) ~wall_s
      ~channels:[] ~workers:[]

  (* Non-destructive peek at a stream container's buffered contents, in
     pop order.  How batch runs expose what streaming runs hand to the
     sink. *)
  let stream_contents (inst : t) name : value array =
    match Hashtbl.find_opt inst.i_env.containers name with
    | Some (Strm s) ->
      let buf = ref [] in
      Array.iter
        (fun q -> Queue.iter (fun v -> buf := v :: !buf) q)
        s.qs;
      Array.of_list (List.rev !buf)
    | Some _ ->
      runtime_error "instance %S: container %S is not a stream"
        inst.i_env.g.g_name name
    | None ->
      runtime_error "instance %S: no container %S" inst.i_env.g.g_name name

  (* Streaming run: feed [input] incrementally from [source] (chunks of
     elements, [None] = end of stream), emit [output] incrementally to
     [sink].  When the pipeline verdict admits it the consume scopes run
     as overlapped workers with bounded backpressure channels; otherwise
     the graph executes once, batch-style, after the source drains.
     Either way the observable results are bit-identical to
     [run ~stream_args:[(input, all-elements)]] followed by
     [stream_contents] on the output. *)
  let run_streaming ?(args = []) ~input ?output
      ?(sink = fun (_ : value array) -> ()) ~source (inst : t) :
      Obs.Report.t =
    Mutex.lock inst.i_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock inst.i_lock) @@ fun () ->
    let env = inst.i_env in
    prepare inst args;
    let t0 = Obs.Collect.now () in
    let channels, workers =
      run_streaming_env env inst.i_config ~input ~output ~source ~sink
    in
    let wall_s = Obs.Collect.now () -. t0 in
    copy_out env args;
    report env ~engine:(engine_name inst.i_config.Config.engine) ~wall_s
      ~channels ~workers
end
