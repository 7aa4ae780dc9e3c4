open Sdfg_ir
module Tensor = Interp.Tensor
module Xform = Transform.Xform

type kind =
  | Engine
  | Roundtrip
  | Xform
  | Opt
  | Parallel_crossval
  | Kernel_crossval
  | Stream_crossval

let kinds =
  [ Engine; Roundtrip; Xform; Opt; Parallel_crossval; Kernel_crossval;
    Stream_crossval ]

let kind_name = function
  | Engine -> "engine"
  | Roundtrip -> "roundtrip"
  | Xform -> "xform"
  | Opt -> "opt"
  | Parallel_crossval -> "parallel_crossval"
  | Kernel_crossval -> "kernel_crossval"
  | Stream_crossval -> "stream_crossval"

let kind_of_string = function
  | "engine" -> Some Engine
  | "roundtrip" -> Some Roundtrip
  | "xform" -> Some Xform
  | "opt" -> Some Opt
  | "parallel_crossval" | "parallel" -> Some Parallel_crossval
  | "kernel_crossval" | "kernel" -> Some Kernel_crossval
  | "stream_crossval" | "stream" -> Some Stream_crossval
  | _ -> None

type status = Pass of string | Skip of string | Fail of string

let status_name = function
  | Pass _ -> "pass"
  | Skip _ -> "skip"
  | Fail _ -> "fail"

(* --- float-accumulation detection ------------------------------------- *)

let is_float_container g name =
  Sdfg.has_desc g name
  && Tasklang.Types.is_float (Defs.ddesc_dtype (Sdfg.desc g name))

let rec float_accumulation g =
  List.exists
    (fun st ->
      List.exists
        (fun e ->
          match e.Defs.e_memlet with
          | Some m -> m.Defs.m_wcr <> None && is_float_container g m.m_data
          | None -> false)
        (State.edges st)
      || List.exists
           (fun (id, n) ->
             match n with
             | Defs.Reduce _ ->
               List.exists
                 (fun e ->
                   match e.Defs.e_memlet with
                   | Some m -> is_float_container g m.Defs.m_data
                   | None -> false)
                 (State.out_edges st id)
             | Defs.Nested_sdfg nest -> float_accumulation nest.n_sdfg
             | _ -> false)
           (State.nodes st))
    (Sdfg.states g)

(* --- running and comparing -------------------------------------------- *)

(* Run one engine over deterministic inputs; the returned bindings are the
   caller tensors Exec.run mutated in place, i.e. the program outputs.
   Domains are pinned to 1: these oracles state sequential contracts and
   must not wobble under an ambient SDFG_DOMAINS; the parallel oracle
   below pins its own domain counts. *)
let exec engine g =
  let symbols = Gen.symbols_for g in
  let args = Interp.Profile.make_args ~symbols g in
  let config =
    Interp.Exec.Config.(default |> with_engine engine |> with_domains 1)
  in
  ignore (Interp.Exec.run ~config ~symbols ~args g);
  args

let first_diff a b =
  let fa = Tensor.to_float_list a and fb = Tensor.to_float_list b in
  let rec go i = function
    | x :: xs, y :: ys ->
      if x = y || (Float.is_nan x && Float.is_nan y) then go (i + 1) (xs, ys)
      else Fmt.str "index %d: %h vs %h" i x y
    | _ -> "shapes differ"
  in
  go 0 (fa, fb)

let diff ~approx base got =
  let cmp a b =
    if approx then Tensor.approx_equal a b else Tensor.equal a b
  in
  let rec go = function
    | [] -> None
    | (name, t) :: rest -> (
      match List.assoc_opt name got with
      | None -> Some (Fmt.str "container %s missing from outputs" name)
      | Some t' ->
        if cmp t t' then go rest
        else Some (Fmt.str "container %s diverges (%s)" name (first_diff t t')))
  in
  go base

(* Run the compiled engine at a given domain count, returning both the
   output tensors and the run's instrumentation counters.  [kernels]
   selects between the bulk-kernel path (default) and the pure closure
   path. *)
let exec_compiled ?(kernels = true) ~domains g =
  let symbols = Gen.symbols_for g in
  let args = Interp.Profile.make_args ~symbols g in
  let config =
    Interp.Exec.Config.(
      default |> with_engine `Compiled |> with_kernels kernels
      |> with_domains domains)
  in
  let r = Interp.Exec.run ~config ~symbols ~args g in
  (args, r.Obs.Report.r_counters)

(* Run the compiled engine under the predictive domain policy capped at
   [cap], returning outputs, counters and the full report (for the
   decision-consistency checks). *)
let exec_predictive ?(kernels = true) ~cap g =
  let symbols = Gen.symbols_for g in
  let args = Interp.Profile.make_args ~symbols g in
  let config =
    Interp.Exec.Config.(
      default |> with_engine `Compiled |> with_kernels kernels
      |> with_auto_domains ~cap)
  in
  let r = Interp.Exec.run ~config ~symbols ~args g in
  (args, r.Obs.Report.r_counters, r)

(* Internal consistency of a predictive run's parallel report section:
   the policy label, every decision's worker count within [1, cap],
   forced decisions pinned at 1 domain, and [forced_sequential] equal to
   the forced decisions' invocation total. *)
let decision_inconsistency ~cap (rep : Obs.Report.t) =
  match rep.Obs.Report.r_parallel with
  | None -> None
  | Some p ->
    if p.Obs.Report.par_policy <> "predictive" then
      Some (Fmt.str "policy %S in a predictive run" p.Obs.Report.par_policy)
    else
      let forced_inv =
        List.fold_left
          (fun acc (d : Obs.Report.map_decision) ->
            if d.Obs.Report.pm_forced then acc + d.Obs.Report.pm_invocations
            else acc)
          0 p.Obs.Report.par_decisions
      in
      if p.Obs.Report.par_forced_seq <> forced_inv then
        Some
          (Fmt.str
             "forced_sequential=%d but forced decisions account for %d \
              invocation(s)"
             p.Obs.Report.par_forced_seq forced_inv)
      else
        List.find_map
          (fun (d : Obs.Report.map_decision) ->
            if d.Obs.Report.pm_domains < 1 || d.Obs.Report.pm_domains > cap
            then
              Some
                (Fmt.str "map %s: predicted_domains=%d outside [1, %d]"
                   d.Obs.Report.pm_map d.Obs.Report.pm_domains cap)
            else if d.Obs.Report.pm_forced && d.Obs.Report.pm_domains <> 1
            then
              Some
                (Fmt.str "map %s: forced sequential yet predicted_domains=%d"
                   d.Obs.Report.pm_map d.Obs.Report.pm_domains)
            else None)
          p.Obs.Report.par_decisions

(* --- the oracles -------------------------------------------------------- *)

let engine_oracle g =
  let base = exec `Reference g in
  let got = exec `Compiled g in
  match diff ~approx:false base got with
  | None -> Pass "reference = compiled (bit-exact)"
  | Some d -> Fail ("engine divergence: " ^ d)

let roundtrip_oracle g =
  let s1 = Serialize.to_string g in
  match Serialize.of_string s1 with
  | exception Serialize.Parse_error m ->
    Fail ("serialized graph does not re-parse: " ^ m)
  | g2 ->
    let s2 = Serialize.to_string g2 in
    if s1 <> s2 then Fail "serialization is not a fixpoint (print∘parse∘print)"
    else begin
      let base = exec `Reference g in
      let got = exec `Reference g2 in
      match diff ~approx:false base got with
      | None -> Pass "round-trip preserves semantics and text"
      | Some d -> Fail ("round-trip divergence: " ^ d)
    end

(* Cap candidate indices per transformation so pathological fan-out on one
   graph cannot stall a whole fuzz run. *)
let max_candidates = 4

let xform_oracle g =
  let approx = float_accumulation g in
  let base = exec `Reference g in
  let applied = ref 0 in
  let failures = ref [] in
  let record fmt = Fmt.kstr (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun (x : Xform.t) ->
      let n = min max_candidates (List.length (x.x_find g)) in
      for i = 0 to n - 1 do
        let g' = Sdfg.clone g in
        match
          let cands = x.x_find g' in
          if i >= List.length cands then
            Xform.not_applicable "candidate %d vanished on clone" i
          else Xform.apply g' x (List.nth cands i)
        with
        | exception Xform.Not_applicable _ -> ()
        | exception Defs.Invalid_sdfg m ->
          record "%s[%d] produced an invalid graph: %s" x.x_name i m
        | () -> (
          incr applied;
          match exec `Reference g' with
          | exception Interp.Exec.Runtime_error m ->
            record "%s[%d] crashed the reference engine: %s" x.x_name i m
          | got -> (
            match diff ~approx base got with
            | Some d -> record "%s[%d] changed the output: %s" x.x_name i d
            | None -> (
              (* same graph through both engines: bit equality, always *)
              match exec `Compiled g' with
              | exception Interp.Exec.Runtime_error m ->
                record "%s[%d] crashed the compiled engine: %s" x.x_name i m
              | got_c -> (
                match diff ~approx:false got got_c with
                | Some d ->
                  record "%s[%d] engines diverge post-transform: %s" x.x_name
                    i d
                | None -> ()))))
      done)
    Transform.Std.all;
  match !failures with
  | [] ->
    if !applied = 0 then Skip "no transformation applies to this graph"
    else Pass (Fmt.str "%d application(s) preserved the output" !applied)
  | fs -> Fail (String.concat "; " (List.rev fs))

let opt_oracle g =
  let symbols = Gen.symbols_for g in
  let approx = float_accumulation g in
  let base = exec `Reference g in
  match
    let cfg =
      Opt.Search.config ~target:Machine.Cost.Tcpu ~symbols
        ~objective:Opt.Search.Model_only ~beam:2 ~max_steps:3
        ~max_candidates:4 ()
    in
    Opt.Search.optimize ~name:(Sdfg.name g) cfg (fun () -> Sdfg.clone g)
  with
  | exception Machine.Cost.Cost_error m -> Skip ("cost model: " ^ m)
  | r -> (
    if r.Opt.Search.r_chain = [] then Pass "search committed no steps"
    else
      let g' = Sdfg.clone g in
      match Transform.Std.apply_chain g' r.r_chain with
      | Error m ->
        Fail
          (Fmt.str "chain '%s' does not replay: %s"
             (String.trim (Xform.chain_to_string r.r_chain))
             m)
      | Ok () -> (
        match exec `Reference g' with
        | exception Interp.Exec.Runtime_error m ->
          Fail (Fmt.str "optimized graph crashed: %s" m)
        | got -> (
          match diff ~approx base got with
          | Some d ->
            Fail
              (Fmt.str "chain '%s' changed the output: %s"
                 (String.trim (Xform.chain_to_string r.r_chain))
                 d)
          | None ->
            Pass
              (Fmt.str "%d-step chain preserved the output"
                 (List.length r.r_chain)))))

(* Reference vs compiled-sequential vs compiled-parallel at 2 and 4
   domains.  The race analysis only parallelizes maps whose chunked
   writes are disjoint or routed through private WCR accumulators, so
   parallel output must equal sequential output bit-for-bit — except
   under float WCR/Reduce, where the accumulate path legally reorders
   the combination and {!Tensor.approx_equal} applies.  Instrumentation
   counter totals must be identical at every domain count. *)
let parallel_crossval_oracle g =
  let approx = float_accumulation g in
  let base = exec `Reference g in
  let seq, seq_counters = exec_compiled ~domains:1 g in
  match diff ~approx:false base seq with
  | Some d -> Fail ("engine divergence (sequential): " ^ d)
  | None ->
    let predictive () =
      (* the same graph under the predictive policy (cap 4): the policy
         may pick any worker count per map, so outputs and counters must
         still match sequential, and the report's decision records must
         be internally consistent *)
      match exec_predictive ~cap:4 g with
      | exception Interp.Exec.Runtime_error m ->
        Fail ("predictive run crashed: " ^ m)
      | got, counters, rep -> (
        if counters <> seq_counters then
          Fail
            (Fmt.str
               "counters diverge under the predictive policy: %a vs %a \
                (sequential)"
               Obs.Report.pp_counters counters Obs.Report.pp_counters
               seq_counters)
        else
          match diff ~approx seq got with
          | Some m -> Fail ("predictive divergence: " ^ m)
          | None -> (
            match decision_inconsistency ~cap:4 rep with
            | Some m -> Fail ("inconsistent parallel report: " ^ m)
            | None ->
              Pass
                (if approx then
                   "parallel ~= sequential (float accumulation) at 2 and \
                    4 domains and under the predictive policy"
                 else
                   "parallel = sequential (bit-exact) at 2 and 4 domains \
                    and under the predictive policy")))
    in
    let rec at = function
      | [] -> predictive ()
      | d :: rest -> (
        match exec_compiled ~domains:d g with
        | exception Interp.Exec.Runtime_error m ->
          Fail (Fmt.str "parallel run crashed at %d domains: %s" d m)
        | got, counters -> (
          if counters <> seq_counters then
            Fail
              (Fmt.str
                 "counters diverge at %d domains: %a (parallel) vs %a \
                  (sequential)"
                 d Obs.Report.pp_counters counters Obs.Report.pp_counters
                 seq_counters)
          else
            match diff ~approx seq got with
            | Some m ->
              Fail (Fmt.str "parallel divergence at %d domains: %s" d m)
            | None -> at rest))
    in
    at [ 2; 4 ]

(* Three-way: reference vs the compiled engine's closure path
   ([kernels:false]) vs its bulk-kernel path ([kernels:true]), at 1, 2
   and 4 domains.  The closure path is the semantic anchor — it must be
   bit-equal to reference sequentially.  The kernel path executes the
   same reads and writes in the same order as the closure nest, so the
   two must agree bit-for-bit except under float WCR/Reduce, where
   parallel chunking legally reorders the combination and
   {!Tensor.approx_equal} applies.  Counter totals must be identical on
   both paths at every domain count: a kernel launch of [T] trips bulk-
   bumps exactly what [T] closure iterations would. *)
let kernel_crossval_oracle g =
  let approx = float_accumulation g in
  let base = exec `Reference g in
  let closure_seq, _ = exec_compiled ~kernels:false ~domains:1 g in
  match diff ~approx:false base closure_seq with
  | Some d -> Fail ("closure path diverges from reference: " ^ d)
  | None ->
    let predictive () =
      (* both paths under the predictive policy (cap 4): kernel-kind
         pricing must not change what gets computed *)
      match exec_predictive ~kernels:false ~cap:4 g with
      | exception Interp.Exec.Runtime_error m ->
        Fail ("predictive closure run crashed: " ^ m)
      | closure, cc, crep -> (
        match exec_predictive ~kernels:true ~cap:4 g with
        | exception Interp.Exec.Runtime_error m ->
          Fail ("predictive kernel run crashed: " ^ m)
        | kern, kc, krep -> (
          if cc <> kc then
            Fail
              (Fmt.str
                 "counters diverge under the predictive policy: %a \
                  (kernel) vs %a (closure)"
                 Obs.Report.pp_counters kc Obs.Report.pp_counters cc)
          else
            match diff ~approx closure kern with
            | Some m -> Fail ("predictive kernel divergence: " ^ m)
            | None -> (
              match
                List.find_map (decision_inconsistency ~cap:4) [ crep; krep ]
              with
              | Some m -> Fail ("inconsistent parallel report: " ^ m)
              | None ->
                Pass
                  (if approx then
                     "kernel ~= closure (float accumulation) at 1, 2 and \
                      4 domains and under the predictive policy"
                   else
                     "kernel = closure (bit-exact) at 1, 2 and 4 domains \
                      and under the predictive policy"))))
    in
    let rec at = function
      | [] -> predictive ()
      | d :: rest -> (
        match exec_compiled ~kernels:false ~domains:d g with
        | exception Interp.Exec.Runtime_error m ->
          Fail (Fmt.str "closure path crashed at %d domains: %s" d m)
        | closure, cc -> (
          match exec_compiled ~kernels:true ~domains:d g with
          | exception Interp.Exec.Runtime_error m ->
            Fail (Fmt.str "kernel path crashed at %d domains: %s" d m)
          | kern, kc -> (
            if cc <> kc then
              Fail
                (Fmt.str
                   "counters diverge at %d domains: %a (kernel) vs %a \
                    (closure)"
                   d Obs.Report.pp_counters kc Obs.Report.pp_counters cc)
            else
              match diff ~approx closure kern with
              | Some m ->
                Fail (Fmt.str "kernel divergence at %d domains: %s" d m)
              | None -> at rest)))
    in
    at [ 1; 2; 4 ]

(* Chunked streaming execution vs batch pre-loaded streams.  The
   generator does not emit stream containers, so the generated graph
   only seeds a deterministic pick over the continuous-query workload
   menu ({!Workloads.Streaming.all}) plus the feed size, chunk size and
   input values.  The batch anchor is [Instance.run ~stream_args]; the
   streaming runs must reproduce its output stream bit-for-bit and its
   tensors bit-for-bit (approximately under float WCR, where the
   contract allows reordering), through both engines, at 1, 2 and 4
   domains — and no channel may ever have held more elements than its
   capacity (the backpressure invariant). *)
let stream_crossval_oracle g =
  let h = Hashtbl.hash (Serialize.to_string g) in
  let menu = Workloads.Streaming.all in
  let wname, mk, input, output, syms =
    List.nth menu (h mod List.length menu)
  in
  let sg = mk () in
  let approx = float_accumulation sg in
  let n = 16 + ((h lsr 3) mod 113) in
  let chunk = 1 + ((h lsr 5) mod 9) in
  let values = Workloads.Streaming.sample_values n (1 + (h land 0xffff)) in
  let config engine d =
    Interp.Exec.Config.(
      default |> with_engine engine |> with_domains d
      |> with_stream_chunk chunk)
  in
  let module I = Interp.Exec.Instance in
  let base_args = Interp.Profile.make_args ~symbols:syms sg in
  let base = I.create ~config:(config `Reference 1) ~symbols:syms sg in
  ignore (I.run ~args:base_args ~stream_args:[ (input, values) ] base);
  let base_out =
    match output with None -> [||] | Some o -> I.stream_contents base o
  in
  let rec at = function
    | [] ->
      Pass
        (Fmt.str "chunked (%d x %d) = batch on %s at 1, 2 and 4 domains"
           chunk n wname)
    | (engine, d) :: rest -> (
      let args = Interp.Profile.make_args ~symbols:syms sg in
      let inst = I.create ~config:(config engine d) ~symbols:syms sg in
      let got = ref [] in
      match
        I.run_streaming ~args ~input ?output
          ~sink:(fun c -> got := c :: !got)
          ~source:(Workloads.Streaming.chunked_source values chunk)
          inst
      with
      | exception Interp.Exec.Runtime_error m ->
        Fail (Fmt.str "streaming run crashed at %d domains: %s" d m)
      | rep ->
        let out = Array.concat (List.rev !got) in
        if out <> base_out then
          Fail
            (Fmt.str
               "output stream diverges from batch on %s at %d domains (%d \
                vs %d elements)"
               wname d (Array.length out) (Array.length base_out))
        else
          let over =
            match rep.Obs.Report.r_parallel with
            | None -> []
            | Some p ->
              List.filter
                (fun (c : Obs.Report.channel_stat) ->
                  c.pc_depth_hwm > c.pc_capacity)
                p.Obs.Report.par_channels
          in
          match over with
          | c :: _ ->
            Fail
              (Fmt.str "channel %s held %d elements over capacity %d"
                 c.Obs.Report.pc_name c.pc_depth_hwm c.pc_capacity)
          | [] -> (
            match diff ~approx base_args args with
            | Some m ->
              Fail
                (Fmt.str "tensor divergence from batch on %s at %d \
                          domains: %s" wname d m)
            | None -> at rest))
  in
  at
    [ (`Reference, 1); (`Reference, 2); (`Compiled, 1); (`Compiled, 2);
      (`Compiled, 4) ]

let check kind g =
  let f =
    match kind with
    | Engine -> engine_oracle
    | Roundtrip -> roundtrip_oracle
    | Xform -> xform_oracle
    | Opt -> opt_oracle
    | Parallel_crossval -> parallel_crossval_oracle
    | Kernel_crossval -> kernel_crossval_oracle
    | Stream_crossval -> stream_crossval_oracle
  in
  try f g with
  | Interp.Exec.Runtime_error m -> Fail ("runtime error: " ^ m)
  | Defs.Invalid_sdfg m -> Fail ("validation error: " ^ m)
