(* Engine v2: bulk strided kernels for affine map bodies.

   Guarantees under test:
   - recognition: the engines workloads lower to the expected kernel
     kinds, recorded in the plan coverage report, and unsupported bodies
     fall back to the closure path with a stable reason code;
   - equivalence: kernel and closure paths produce bit-identical output
     tensors and identical counter totals at 1, 2 and 4 domains, on
     every Polybench kernel, every fixture graph and the fuzz corpus;
   - error behavior: a launch whose bounds pre-check fails defers to the
     closure nest, so both paths raise the same error with the same
     partial effects;
   - the Tensor primitives behind the kernels (fill / scale / axpy)
     handle dense and strided views and reject shape mismatches. *)

module T = Tasklang.Types
module R = Obs.Report
module E = Symbolic.Expr
module S = Symbolic.Subset
open Sdfg_ir
open Builder
open Interp

let tensor_bits = Test_crossval.tensor_bits
let counter_list = Test_crossval.counter_list

(* Compiled engine at an explicit domain count, kernels on/off. *)
let compiled_cfg ?(kernels = true) ~domains () =
  Exec.Config.(
    default |> with_engine Plan.compiled |> with_kernels kernels
    |> with_domains domains)

let check_bits tag a b =
  List.iter2
    (fun (n1, t1) (n2, t2) ->
      Alcotest.(check string) (tag ^ ": argument order") n1 n2;
      Alcotest.(check (list int64))
        (Fmt.str "%s: %S byte-identical" tag n1)
        (tensor_bits t1) (tensor_bits t2))
    a b

(* --- Tensor primitives --------------------------------------------------- *)

let floats t = Tensor.to_float_list t

let test_tensor_fill () =
  let t = Tensor.create T.F64 [| 2; 4 |] in
  Tensor.fill t (T.F 3.5);
  Alcotest.(check (list (float 0.)))
    "dense fill" (List.init 8 (fun _ -> 3.5)) (floats t);
  (* strided view: every other column of row 1 *)
  let v = Tensor.view t ~starts:[| 1; 0 |] ~counts:[| 1; 2 |] ~steps:[| 1; 2 |] in
  Tensor.fill v (T.F 9.);
  Alcotest.(check (list (float 0.)))
    "strided fill hits only the view"
    [ 3.5; 3.5; 3.5; 3.5; 9.; 3.5; 9.; 3.5 ]
    (floats t);
  (* int buffer coerces the value *)
  let ti = Tensor.create T.I64 [| 3 |] in
  Tensor.fill ti (T.I 7);
  Alcotest.(check (list (float 0.))) "int fill" [ 7.; 7.; 7. ] (floats ti)

(* --- recognition and coverage -------------------------------------------- *)

(* Kernel tallies of one compiled run, which must not depend on the
   instrumentation level: timing observes the plan, it never picks it. *)
let coverage ?(kernels = true) build symbols =
  let tallies level =
    let g = build () in
    let args = Profile.make_args ~symbols g in
    let config =
      compiled_cfg ~kernels ~domains:1 () |> Exec.Config.with_instrument level
    in
    match (Exec.run g ~config ~symbols ~args).R.r_coverage with
    | None -> Alcotest.fail "compiled run must report coverage"
    | Some c ->
      let sorted l = List.sort compare l in
      (sorted c.R.cov_kernels, sorted c.R.cov_kernel_fallbacks)
  in
  let off = tallies Obs.Collect.Off in
  let tally = Alcotest.(list (pair string int)) in
  Alcotest.(check (pair tally tally))
    "same kernel coverage at every instrument level" off
    (tallies Obs.Collect.All);
  off

let test_recognized_kinds () =
  List.iter
    (fun (name, build, symbols, want_maps, want_falls) ->
      let kmaps, kfalls = coverage build symbols in
      Alcotest.(check (list (pair string int)))
        (name ^ ": lowered kinds") want_maps kmaps;
      Alcotest.(check (list (pair string int)))
        (name ^ ": fallback reasons") want_falls kfalls)
    [ ( "matmul", Workloads.Kernels.matmul,
        [ ("M", 8); ("N", 8); ("K", 8) ],
        [ ("contract", 1); ("fill", 1) ], [] );
      ( "jacobi", Workloads.Kernels.jacobi,
        [ ("N", 16); ("T", 2) ],
        [ ("ssum", 2) ], [] );
      ( "histogram", Workloads.Kernels.histogram,
        [ ("H", 8); ("W", 8) ],
        (* the scatter's computed bin is input-derived indirection *)
        [ ("fill", 1) ], [ ("non-affine-indirect", 1) ] );
      ( "spmv", Workloads.Kernels.spmv,
        (* sizes ≥ 11 so Profile.make_args' mod-11 index values fit *)
        [ ("H", 8); ("W", 16); ("nnz", 16) ],
        (* the CSR row loop bounds and x gather come from connectors *)
        [], [ ("non-affine-indirect", 1) ] );
      ("copy", Workloads.Kernels.copy, [ ("N", 16) ], [ ("copy", 1) ], []);
      ("eadd", Workloads.Kernels.eadd, [ ("N", 16) ], [ ("ebinop", 1) ], []);
      ("axpy", Workloads.Kernels.axpy, [ ("N", 16) ], [ ("axpy", 1) ], []);
      ( "attention", Workloads.Attention.base,
        Workloads.Attention.attention_mini,
        [ ("contract", 2); ("copy", 2); ("ebinop", 2); ("expr", 3);
          ("fill", 3) ], [] );
      ( "conv-direct", Workloads.Attention.conv_direct,
        Workloads.Attention.conv_mini, [ ("contract", 1); ("fill", 1) ], [] );
      ( "cfd-batched", Workloads.Cfd.batched, Workloads.Cfd.mini,
        (* the gather and scatter index the mesh through a connector *)
        [ ("contract", 2); ("fill", 1) ],
        [ ("multi-stmt", 1); ("non-affine-indirect", 2) ] ) ]

let test_kernels_disabled () =
  (* ~kernels:false must keep every map on the closure path and record
     neither lowered kinds nor fallback reasons *)
  let kmaps, kfalls =
    coverage ~kernels:false Workloads.Kernels.matmul
      [ ("M", 8); ("N", 8); ("K", 8) ]
  in
  Alcotest.(check (list (pair string int))) "no kernels" [] kmaps;
  Alcotest.(check (list (pair string int))) "no fallbacks" [] kfalls

let test_nonaffine_fallback () =
  (* a quadratic subscript cannot be a strided kernel *)
  let build () =
    let g, st = Build.single_state ~symbols:[ "N" ] "sq" in
    Sdfg.add_array g "X" ~shape:[ E.int 64 ] ~dtype:T.F64;
    ignore
      (Build.mapped_tasklet g st ~name:"w" ~schedule:Defs.Cpu_multicore
         ~params:[ "i" ]
         ~ranges:[ S.range E.zero (E.sub (E.sym "N") E.one) ]
         ~ins:[]
         ~outs:
           [ Build.out_elem "x" "X" [ E.mul (E.sym "i") (E.sym "i") ] ]
         ~code:(`Src "x = 1.0") ());
    Build.finalize g
  in
  let kmaps, kfalls = coverage build [ ("N", 8) ] in
  Alcotest.(check (list (pair string int))) "nothing lowered" [] kmaps;
  Alcotest.(check (list (pair string int)))
    "non-affine reason" [ ("non-affine", 1) ] kfalls

(* --- kernel path == closure path ----------------------------------------- *)

(* Run the compiled engine twice on identical deterministic inputs —
   closure path and kernel path — and require byte-identical outputs and
   identical counter totals.  The kernel executes the same reads and
   writes in the same order as the closure nest, so this holds even for
   float WCR at a fixed domain count. *)
let check_paths_agree tag build symbols args_for ~domains =
  let run kernels =
    let g = build () in
    let args = args_for g in
    let r = Exec.run g ~config:(compiled_cfg ~kernels ~domains ()) ~symbols ~args in
    (args, r)
  in
  let closure_out, closure_r = run false in
  let kernel_out, kernel_r = run true in
  check_bits (Fmt.str "%s at %d domains" tag domains) closure_out kernel_out;
  Alcotest.(check (list int))
    (Fmt.str "%s: counters at %d domains" tag domains)
    (counter_list closure_r.R.r_counters)
    (counter_list kernel_r.R.r_counters)

let test_polybench_paths name () =
  let k = Workloads.Polybench.find name in
  List.iter
    (fun domains ->
      check_paths_agree name k.Workloads.Polybench.k_build
        k.Workloads.Polybench.k_mini
        (fun g -> Test_polybench.alloc_args g k.Workloads.Polybench.k_mini)
        ~domains)
    [ 1; 2; 4 ]

let test_fixture_paths (name, build, symbols, args) () =
  List.iter
    (fun domains ->
      check_paths_agree name build symbols (fun _ -> args ()) ~domains)
    [ 1; 2; 4 ]

let test_engines_workload_paths () =
  List.iter
    (fun (name, build, symbols) ->
      List.iter
        (fun domains ->
          check_paths_agree name build symbols
            (fun g -> Profile.make_args ~symbols g)
            ~domains)
        [ 1; 2; 4 ])
    [ ("matmul", Workloads.Kernels.matmul, [ ("M", 8); ("N", 8); ("K", 8) ]);
      ("jacobi", Workloads.Kernels.jacobi, [ ("N", 16); ("T", 2) ]);
      ("histogram", Workloads.Kernels.histogram, [ ("H", 16); ("W", 16) ]);
      ("copy", Workloads.Kernels.copy, [ ("N", 33) ]);
      ("eadd", Workloads.Kernels.eadd, [ ("N", 33) ]);
      ("axpy", Workloads.Kernels.axpy, [ ("N", 33) ]) ]

let test_corpus_kernels () =
  List.iter
    (fun path ->
      let g = Serialize.load path in
      match Fuzz.Oracle.check Fuzz.Oracle.Kernel_crossval g with
      | Fuzz.Oracle.Fail m -> Alcotest.failf "%s: %s" path m
      | Fuzz.Oracle.Pass _ | Fuzz.Oracle.Skip _ -> ())
    (Test_fuzz.corpus_files ())

(* --- error behavior ------------------------------------------------------ *)

(* Map range runs to N-1 over an 8-element array: with N = 9 the bounds
   pre-check fails, the kernel defers to the closure nest, and both paths
   must raise the same located error after the same partial writes. *)
let oob_graph () =
  let g, st = Build.single_state ~symbols:[ "N" ] "oob" in
  Sdfg.add_array g "X" ~shape:[ E.int 8 ] ~dtype:T.F64;
  ignore
    (Build.mapped_tasklet g st ~name:"w" ~schedule:Defs.Cpu_multicore
       ~params:[ "i" ]
       ~ranges:[ S.range E.zero (E.sub (E.sym "N") E.one) ]
       ~ins:[]
       ~outs:[ Build.out_elem "x" "X" [ E.sym "i" ] ]
       ~code:(`Src "x = 1.0") ());
  Build.finalize g

(* At [All] the timer tree must also match the reference engine's: the
   kernel's body span opens only after the pre-check passes, so the
   closure nest's tasklet spans never nest under it.  The run raises, so
   it goes through a caller-built environment whose collector outlives
   the error. *)
let test_oob_same_error () =
  let run ~level exec_state kernels =
    let x = Tensor.init T.F64 [| 8 |] (fun _ -> T.F (-1.)) in
    let env =
      { Reference.g = oob_graph (); containers = Hashtbl.create 4;
        symbols = Hashtbl.create 4; stats = Reference.fresh_stats ();
        collector = Obs.Collect.create level; max_states = 100; exec_state;
        plans = Hashtbl.create 4; policy = Reference.Fixed 1;
        par = Reference.fresh_par (); kernels }
    in
    Hashtbl.replace env.Reference.symbols "N" 9;
    Hashtbl.replace env.Reference.containers "X" (Reference.Tens x);
    match Reference.run_in env with
    | () -> Alcotest.fail "out-of-bounds write must raise"
    | exception e ->
      ( Printexc.to_string e,
        floats x,
        R.shape
          (Reference.report env ~engine:"" ~wall_s:0. ~channels:[]
             ~workers:[]) )
  in
  List.iter
    (fun level ->
      let tag = Obs.Collect.level_name level in
      let closure_msg, closure_x, _ = run ~level Plan.exec_state false in
      let kernel_msg, kernel_x, kernel_shape = run ~level Plan.exec_state true in
      let _, _, reference_shape = run ~level Reference.exec_state false in
      Alcotest.(check string) (tag ^ ": same error message") closure_msg
        kernel_msg;
      Alcotest.(check (list (float 0.)))
        (tag ^ ": same partial effects") closure_x kernel_x;
      Alcotest.(check string)
        (tag ^ ": timer tree shape of the reference engine") reference_shape
        kernel_shape)
    [ Obs.Collect.Off; Obs.Collect.All ]

let test_zero_trip_kernel () =
  let x = Tensor.init T.F64 [| 8 |] (fun _ -> T.F 7.) in
  let r =
    Exec.run (oob_graph ())
      ~config:(compiled_cfg ~domains:1 ())
      ~symbols:[ ("N", 0) ]
      ~args:[ ("X", x) ]
  in
  Alcotest.(check (list (float 0.)))
    "X untouched" (List.init 8 (fun _ -> 7.)) (floats x);
  Alcotest.(check int) "no tasklets ran" 0 r.R.r_counters.R.tasklet_execs

let suite =
  [ ("Tensor.fill: dense and strided", `Quick, test_tensor_fill);
    ("engines workloads lower to expected kinds", `Quick,
      test_recognized_kinds);
    ("~kernels:false keeps the closure path", `Quick, test_kernels_disabled);
    ("non-affine subscript falls back with reason", `Quick,
      test_nonaffine_fallback);
    ("engines workloads: kernel == closure at 1/2/4 domains", `Quick,
      test_engines_workload_paths);
    ("failed bounds pre-check defers to the closure nest", `Quick,
      test_oob_same_error);
    ("zero-trip launch no-ops", `Quick, test_zero_trip_kernel);
    ("corpus repros pass the kernel oracle", `Quick, test_corpus_kernels) ]
  @ List.map
      (fun c ->
        let name, _, _, _ = c in
        ( Fmt.str "fixture %s: kernel == closure at 1/2/4 domains" name,
          `Quick, test_fixture_paths c ))
      Test_crossval.fixture_cases
  @ List.map
      (fun name ->
        ( Fmt.str "polybench %s: kernel == closure at 1/2/4 domains" name,
          `Quick, test_polybench_paths name ))
      Workloads.Polybench.names
