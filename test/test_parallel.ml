(* Determinism of multicore map execution (ISSUE: parallel battery).

   The guarantee under test: running the compiled engine at 1, 2 and 4
   domains yields byte-identical output tensors and identical
   instrumentation counter totals (timer values excluded — they are wall
   clock).  The single exception is a float container on the
   WCR-accumulate path, where per-domain private accumulators legally
   reorder the float reduction: there the result is still deterministic
   for a fixed domain count (two runs agree bit-for-bit) and
   approx-equal to sequential.  Integer accumulators and all
   Disjoint/Private verdicts stay bit-identical at every domain count. *)

module T = Tasklang.Types
module R = Obs.Report
module Races = Analysis.Races
open Sdfg_ir
open Interp

let tensor_bits = Test_crossval.tensor_bits
let counter_list = Test_crossval.counter_list

(* Compiled engine pinned to an explicit domain count. *)
let compiled_at domains =
  Exec.Config.(
    default |> with_engine Plan.compiled |> with_domains domains)

let check_bits tag a b =
  List.iter2
    (fun (n1, t1) (n2, t2) ->
      Alcotest.(check string) (tag ^ ": argument order") n1 n2;
      Alcotest.(check (list int64))
        (Fmt.str "%s: %S byte-identical" tag n1)
        (tensor_bits t1) (tensor_bits t2))
    a b

let check_approx tag a b =
  List.iter2
    (fun (n1, t1) (n2, t2) ->
      Alcotest.(check string) (tag ^ ": argument order") n1 n2;
      Alcotest.(check bool)
        (Fmt.str "%s: %S approx-equal" tag n1)
        true
        (Tensor.approx_equal t1 t2))
    a b

(* Does any map of [g] get the float-accumulate verdict?  Only that path
   may reorder a reduction; everything else must stay bit-exact. *)
let float_accumulate g =
  List.exists
    (fun r ->
      match r.Races.mr_verdict with
      | Races.Parallel { accumulate = (_ :: _) as acc; _ } ->
        List.exists
          (fun (n, _) -> T.is_float (Defs.ddesc_dtype (Sdfg.desc g n)))
          acc
      | _ -> false)
    (Races.analyze g)

(* --- every Polybench kernel at 1/2/4 domains ---------------------------- *)

let run_polybench (k : Workloads.Polybench.kernel) ~domains =
  let g = k.k_build () in
  let args = Test_polybench.alloc_args g k.k_mini in
  let report =
    Exec.run g ~config:(compiled_at domains) ~symbols:k.k_mini ~args
  in
  (args, report)

let test_kernel_domains name () =
  let k = Workloads.Polybench.find name in
  let approx = float_accumulate (k.Workloads.Polybench.k_build ()) in
  let base_args, base_r = run_polybench k ~domains:1 in
  List.iter
    (fun d ->
      let args, r = run_polybench k ~domains:d in
      (* counter totals are independent of the domain count *)
      Alcotest.(check (list int))
        (Fmt.str "%s: counters stable at %d domains" name d)
        (counter_list base_r.R.r_counters)
        (counter_list r.R.r_counters);
      (* fixed domain count: repeat runs are byte-identical *)
      let args2, _ = run_polybench k ~domains:d in
      check_bits (Fmt.str "%s: repeat run at %d domains" name d) args args2;
      (* against sequential: bit-exact unless a float accumulator *)
      if approx then
        check_approx (Fmt.str "%s: %d domains vs sequential" name d)
          base_args args
      else
        check_bits (Fmt.str "%s: %d domains vs sequential" name d)
          base_args args)
    [ 2; 4 ]

(* --- all fixture graphs: parallel == sequential, bit for bit ------------- *)

let test_fixture_domains (name, build, symbols, args) () =
  (* none of the fixtures has a float-accumulate map (checked below), so
     equality is exact even for matmul_wcr — its WCR writes are disjoint
     along the chunked parameter *)
  Alcotest.(check bool)
    (name ^ ": no float-accumulate maps")
    false
    (float_accumulate (build ()));
  let run ~domains =
    let g = build () in
    let a = args () in
    ignore (Exec.run g ~config:(compiled_at domains) ~symbols ~args:a);
    a
  in
  let base = run ~domains:1 in
  List.iter
    (fun d ->
      check_bits (Fmt.str "%s: %d domains vs sequential" name d) base
        (run ~domains:d))
    [ 2; 4 ]

(* --- regression corpus through the parallel oracle ----------------------- *)

let test_corpus_parallel () =
  let read path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  List.iter
    (fun path ->
      let g = Serialize.of_string (read path) in
      match Fuzz.Oracle.check Fuzz.Oracle.Parallel_crossval g with
      | Fuzz.Oracle.Fail m -> Alcotest.failf "%s: %s" path m
      | Fuzz.Oracle.Pass _ | Fuzz.Oracle.Skip _ -> ())
    (Test_fuzz.corpus_files ())

(* --- pinned policy regressions ------------------------------------------- *)

(* Two shrunk pathologies the predictive policy must keep sequential
   forever: a four-iteration map whose fork barrier dwarfs its work
   (chunk-granularity pathology), and a WCR map whose privatized
   1M-element accumulator would be rescanned once per domain at the
   merge (accumulator-merge pathology).  Both also replay through every
   oracle via the corpus test above; by hand:

     dune exec bin/sdfg_cli.exe -- fuzz \
       --replay test/corpus/parallel_chunk_tiny_map.sdfg
     dune exec bin/sdfg_cli.exe -- fuzz \
       --replay test/corpus/parallel_merge_large_accumulator.sdfg *)
let test_policy_pinned_regressions () =
  let read path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  List.iter
    (fun path ->
      let g = Serialize.of_string (read path) in
      let args = Profile.make_args ~symbols:[] g in
      let r =
        Exec.run g
          ~config:
            Exec.Config.(
              default |> with_engine Plan.compiled
              |> with_auto_domains ~cap:4)
          ~symbols:[] ~args
      in
      match r.R.r_parallel with
      | None -> Alcotest.failf "%s: no parallel section" path
      | Some p ->
        Alcotest.(check bool)
          (path ^ ": has a policy decision")
          true
          (p.R.par_decisions <> []);
        List.iter
          (fun d ->
            Alcotest.(check int)
              (Fmt.str "%s: map %s stays sequential" path d.R.pm_map)
              1 d.R.pm_domains;
            Alcotest.(check string)
              (Fmt.str "%s: map %s priced unprofitable" path d.R.pm_map)
              "below-threshold" d.R.pm_reason)
          p.R.par_decisions)
    [ "corpus/parallel_chunk_tiny_map.sdfg";
      "corpus/parallel_merge_large_accumulator.sdfg" ]

(* --- runtime corners ----------------------------------------------------- *)

module E = Symbolic.Expr
module S = Symbolic.Subset
open Builder

let corner_graph ~stride =
  let g, st = Build.single_state ~symbols:[ "N" ] "corner" in
  let n = E.sym "N" in
  Sdfg.add_array g "X" ~shape:[ E.int 8 ] ~dtype:T.F64;
  ignore
    (Build.mapped_tasklet g st ~name:"w" ~schedule:Defs.Cpu_multicore
       ~params:[ "i" ]
       ~ranges:[ S.range ~stride (E.zero) (E.sub n E.one) ]
       ~ins:[]
       ~outs:[ Build.out_elem "x" "X" [ E.sym "i" ] ]
       ~code:(`Src "x = 1.0") ());
  Build.finalize g

let test_zero_trip_parallel () =
  (* N = 0: the parallel dispatcher must no-op, leaving X untouched *)
  let g = corner_graph ~stride:E.one in
  let x = Tensor.init T.F64 [| 8 |] (fun _ -> T.F 7.) in
  let r =
    Exec.run g ~config:(compiled_at 4) ~symbols:[ ("N", 0) ]
      ~args:[ ("X", x) ]
  in
  List.iter
    (fun v -> Alcotest.(check (float 0.)) "X untouched" 7. v)
    (Tensor.to_float_list x);
  Alcotest.(check int) "no tasklets ran" 0 r.R.r_counters.R.tasklet_execs

let test_nonpositive_stride_parallel () =
  (* the parallel path evaluates bounds like the sequential one and must
     raise the same located error, not deadlock or scribble *)
  let g = corner_graph ~stride:(E.int (-1)) in
  let x = Tensor.create T.F64 [| 8 |] in
  match
    Exec.run g ~config:(compiled_at 4) ~symbols:[ ("N", 8) ]
      ~args:[ ("X", x) ]
  with
  | exception Exec.Runtime_error msg ->
    let contains sub =
      let n = String.length msg and m = String.length sub in
      let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Fmt.str "error names the stride: %s" msg)
      true
      (contains "non-positive stride")
  | _ -> Alcotest.fail "expected Runtime_error for stride -1"

(* --- dispatch schedules: chunks per invocation ---------------------------- *)

(* One [Cpu_multicore] map over N iterations: [disjoint] writes X[i],
   otherwise an integer WCR sum into S[0] (the accumulate verdict). *)
let schedule_graph ~disjoint =
  let g, st = Build.single_state ~symbols:[ "N" ] "schedule" in
  let n = E.sym "N" and i = E.sym "i" in
  Sdfg.add_array g "A" ~shape:[ n ] ~dtype:T.I64;
  Sdfg.add_array g "X" ~shape:[ n ] ~dtype:T.I64;
  Sdfg.add_array g "S" ~shape:[ E.one ] ~dtype:T.I64;
  let out =
    if disjoint then Build.out_elem "x" "X" [ i ]
    else Build.out_elem ~wcr:Defs.Wcr_sum "x" "S" [ E.zero ]
  in
  ignore
    (Build.mapped_tasklet g st ~name:"m" ~schedule:Defs.Cpu_multicore
       ~params:[ "i" ] ~ranges:[ S.range E.zero (E.sub n E.one) ]
       ~ins:[ Build.in_elem "a" "A" [ i ] ] ~outs:[ out ]
       ~code:(`Src "x = a * 3 + 1") ());
  Build.finalize g

(* Static blocks (bulk kernels, accumulators) dispatch exactly one chunk
   per worker; disjoint closure bodies deal min(trips, 4 * workers)
   chunks dynamically.  Either way the outputs match the reference. *)
let test_dispatch_chunks () =
  let cases =
    [ ("kernel disjoint", true, true, fun ~trips:_ ~workers -> workers);
      ("closure accumulate", false, false, fun ~trips:_ ~workers -> workers);
      ("kernel accumulate", false, true, fun ~trips:_ ~workers -> workers);
      ("closure disjoint", true, false,
       fun ~trips ~workers -> min trips (4 * workers)) ]
  in
  List.iter
    (fun (name, disjoint, kernels, expected) ->
      let g = schedule_graph ~disjoint in
      List.iter
        (fun trips ->
          let args () =
            [ ("A", Tensor.init T.I64 [| trips |] (fun ix ->
                   T.I (List.hd ix mod 5)));
              ("X", Tensor.create T.I64 [| trips |]);
              ("S", Tensor.create T.I64 [| 1 |]) ]
          in
          let run config =
            let a = args () in
            (a, Exec.run g ~config ~symbols:[ ("N", trips) ] ~args:a)
          in
          let ref_args, _ =
            run Exec.Config.(default |> with_engine Plan.reference)
          in
          List.iter
            (fun workers ->
              let tag = Fmt.str "%s, %d trips, %d domains" name trips workers in
              let a, r =
                run Exec.Config.(compiled_at workers |> with_kernels kernels)
              in
              check_bits (tag ^ " vs reference") ref_args a;
              let p = Option.get r.R.r_parallel in
              Alcotest.(check (list bool)) (tag ^ ": kernel-lowered")
                [ kernels ]
                (List.map (fun d -> d.R.pm_kind <> "closure")
                   p.R.par_decisions);
              Alcotest.(check int) (tag ^ ": one parallel invocation") 1
                p.R.par_maps;
              Alcotest.(check int) (tag ^ ": chunks") (expected ~trips ~workers)
                p.R.par_chunks)
            [ 2; 4 ])
        [ 6; 50 ])
    cases

(* --- worker replicas built on the first fork ----------------------------- *)

(* A time loop whose two parallel maps grow with the interstate symbol
   [n] = 4, 64, 1024, 4096: a disjoint-write map and an integer WCR
   accumulator.  Under the predictive policy the first invocations price
   below the fork threshold and run on the one-domain replica; the later
   ones fork, which is when the worker replicas are compiled. *)
let growing_maps () =
  let g = Sdfg.create "growing" in
  let size = E.int 4096 in
  Sdfg.add_array g "A" ~shape:[ size ] ~dtype:T.F64;
  Sdfg.add_array g "X" ~shape:[ size ] ~dtype:T.F64;
  Sdfg.add_array g "B" ~shape:[ size ] ~dtype:T.I64;
  Sdfg.add_array g "S" ~shape:[ E.one ] ~dtype:T.I64;
  let init = Sdfg.add_state g ~label:"init" () in
  let body = Sdfg.add_state g ~label:"body" () in
  let fin = Sdfg.add_state g ~label:"done" () in
  let n = E.sym "n" and i = E.sym "i" in
  let ranges = [ S.range E.zero (E.sub n E.one) ] in
  ignore
    (Build.mapped_tasklet g body ~name:"scale" ~schedule:Defs.Cpu_multicore
       ~params:[ "i" ] ~ranges
       ~ins:[ Build.in_elem "a" "A" [ i ] ]
       ~outs:[ Build.out_elem "x" "X" [ i ] ]
       ~code:(`Src "x = a * 2.0 + 1.0") ());
  ignore
    (Build.mapped_tasklet g body ~name:"count" ~schedule:Defs.Cpu_multicore
       ~params:[ "i" ] ~ranges
       ~ins:[ Build.in_elem "b" "B" [ i ] ]
       ~outs:[ Build.out_elem ~wcr:Defs.Wcr_sum "s" "S" [ E.zero ] ]
       ~code:(`Src "s = b") ());
  let id = State.id in
  ignore
    (Sdfg.add_transition g ~src:(id init) ~dst:(id body)
       ~assign:[ ("n", E.int 4) ] ());
  ignore
    (Sdfg.add_transition g ~src:(id body) ~dst:(id body)
       ~cond:(Bexp.lt n size)
       ~assign:[ ("n", E.min_ (E.mul n (E.int 16)) size) ] ());
  ignore
    (Sdfg.add_transition g ~src:(id body) ~dst:(id fin)
       ~cond:(Bexp.ge n size) ());
  Sdfg.set_start g (id init);
  Build.finalize g

(* What the engine reported for this graph when it compiled every worker
   replica at plan time: the kernel kind of each map (scale, count),
   plan coverage (states, compiled nodes, fallback nodes) and kernel
   coverage. *)
let eager_kinds = [ "expr"; "expr" ]
let eager_coverage = [ 3; 4; 4 ]
let eager_kernels = [ ("expr", 2) ]

let test_replicas_on_first_fork () =
  let g = growing_maps () in
  let args () =
    let at f ix = f (List.hd ix) in
    [ ("A", Tensor.init T.F64 [| 4096 |] (at (fun i -> T.F (float_of_int i))));
      ("X", Tensor.create T.F64 [| 4096 |]);
      ("B", Tensor.init T.I64 [| 4096 |] (at (fun i -> T.I (i mod 7))));
      ("S", Tensor.create T.I64 [| 1 |]) ]
  in
  let run config =
    let a = args () in
    let r = Exec.run g ~config ~symbols:[] ~args:a in
    (a, r)
  in
  let ref_args, _ =
    run Exec.Config.(default |> with_engine Plan.reference)
  in
  (* a calibration that prices 4 cores and a cheap fork, so the fork
     point (n = 1024 for both kernels) does not depend on the host *)
  let saved = Machine.Cost.Parallel.calibration () in
  Machine.Cost.Parallel.set_calibration
    { Machine.Cost.Parallel.default_calibration with
      cal_host_domains = 4; cal_fork_s = 1e-7; cal_chunk_s = 1e-9 };
  Fun.protect
    ~finally:(fun () -> Machine.Cost.Parallel.set_calibration saved)
    (fun () ->
      List.iter
        (fun cap ->
          let tag = Fmt.str "cap %d" cap in
          let a, r =
            run
              Exec.Config.(
                default |> with_engine Plan.compiled
                |> with_auto_domains ~cap)
          in
          check_bits (tag ^ " vs reference") ref_args a;
          let p = Option.get r.R.r_parallel in
          let decisions = p.R.par_decisions in
          let invocations =
            List.fold_left (fun acc d -> acc + d.R.pm_invocations) 0 decisions
          in
          Alcotest.(check int) (tag ^ ": 2 maps x 4 invocations") 8 invocations;
          Alcotest.(check bool)
            (Fmt.str "%s: some invocations fork (%d)" tag p.R.par_maps)
            true
            (p.R.par_maps >= 2 && p.R.par_maps < invocations);
          List.iter
            (fun d ->
              Alcotest.(check bool) (tag ^ ": last invocation forked") true
                (d.R.pm_domains > 1))
            decisions;
          let kinds =
            List.sort (fun x y -> compare x.R.pm_node y.R.pm_node) decisions
            |> List.map (fun d -> d.R.pm_kind)
          in
          Alcotest.(check (list string))
            (tag ^ ": kernel kinds (scale, count)") eager_kinds kinds;
          let cov = Option.get r.R.r_coverage in
          Alcotest.(check (list int))
            (tag ^ ": coverage (states, compiled, fallback)") eager_coverage
            [ cov.R.cov_states; cov.R.cov_compiled; cov.R.cov_fallback ];
          Alcotest.(check (list (pair string int)))
            (tag ^ ": kernel coverage") eager_kernels
            (List.sort compare cov.R.cov_kernels))
        [ 2; 4 ])

let suite =
  [ ("zero-trip map at 4 domains no-ops", `Quick, test_zero_trip_parallel);
    ("non-positive stride raises at 4 domains", `Quick,
      test_nonpositive_stride_parallel);
    ("corpus repros: parallel == sequential", `Quick, test_corpus_parallel);
    ("pinned pathologies: policy predicts 1 domain", `Quick,
      test_policy_pinned_regressions);
    ("dispatch schedules: chunks per invocation", `Quick,
      test_dispatch_chunks);
    ("worker replicas built on the first fork", `Quick,
      test_replicas_on_first_fork) ]
  @ List.map
      (fun c ->
        let name, _, _, _ = c in
        ( Fmt.str "fixture %s: 1/2/4 domains agree" name, `Quick,
          test_fixture_domains c ))
      Test_crossval.fixture_cases
  @ List.map
      (fun name ->
        ( Fmt.str "polybench %s: 1/2/4 domains deterministic" name, `Quick,
          test_kernel_domains name ))
      Workloads.Polybench.names
