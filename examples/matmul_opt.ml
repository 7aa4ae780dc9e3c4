(* The performance-engineer workflow of §6.2 / Fig. 15, as a session:
   start from the naive map-reduce matrix multiplication (Fig. 9b) and
   apply data-centric transformations one at a time, checking correctness
   against the interpreter and modeled performance after every step —
   without ever touching the multiplication tasklet.

     dune exec examples/matmul_opt.exe *)

module E = Symbolic.Expr
module T = Tasklang.Types
module Cost = Machine.Cost

let spec = Machine.Spec.paper_testbed

(* run the SDFG on a small instance and return C *)
let run g =
  let m, n, k = (9, 8, 7) in
  let a =
    Interp.Tensor.init T.F64 [| m; k |] (fun idx ->
        match idx with [ i; j ] -> T.F (sin (float_of_int ((7 * i) + j))) | _ -> T.F 0.)
  in
  let b =
    Interp.Tensor.init T.F64 [| k; n |] (fun idx ->
        match idx with [ i; j ] -> T.F (cos (float_of_int (i + (5 * j)))) | _ -> T.F 0.)
  in
  let c = Interp.Tensor.create T.F64 [| m; n |] in
  ignore
    (Interp.Exec.run g
       ~symbols:[ ("M", m); ("N", n); ("K", k) ]
       ~args:[ ("A", a); ("B", b); ("C", c) ]);
  Interp.Tensor.to_float_list c

let gflops g =
  let n = 2048 in
  let r =
    Cost.estimate ~spec ~target:Cost.Tcpu
      ~symbols:[ ("M", n); ("N", n); ("K", n) ]
      g
  in
  2. *. (float_of_int n ** 3.) /. r.Cost.r_time_s /. 1e9

let () =
  let g = Workloads.Kernels.matmul_mapreduce () in
  let reference = run g in
  let check name =
    let now = run g in
    let ok = List.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) reference now in
    Fmt.pr "%-44s %8.1f GFlop/s   results %s@." name (gflops g)
      (if ok then "unchanged" else "CHANGED (bug!)");
    assert ok
  in
  (* the result-returning application surface: a step that does not apply
     is reported and skipped, never an exception to catch *)
  let step name x =
    match Transform.Xform.apply_first g x with
    | Ok () -> check name
    | Error msg -> Fmt.pr "(%s skipped: %s)@." name msg
  in
  Fmt.pr "transforming GEMM without modifying the tasklet (Fig. 15):@.@.";
  check "start: map-reduce (Fig. 9b)";
  step "MapReduceFusion" Transform.Fusion_xforms.map_reduce_fusion;
  (match
     Transform.Std.apply_chain g
       (Transform.Xform.chain_of_string
          "MapExpansion\nMapInterchange\nMapCollapse")
   with
  | Ok () -> check "loop reorder (expand+interchange+collapse)"
  | Error msg -> failwith msg);
  step "MapTiling (L3, 128)"
    (Transform.Map_xforms.map_tiling_sized ~tile_sizes:[ 128 ]);
  step "MapTiling (registers, 4)"
    (Transform.Map_xforms.map_tiling_sized ~tile_sizes:[ 4 ]);
  (let x = Transform.Data_xforms.local_storage in
   match
     List.filter
       (fun c ->
         String.length c.Transform.Xform.c_note > 0
         && c.Transform.Xform.c_note.[0] = 'B')
       (x.Transform.Xform.x_find g)
   with
   | c :: _ ->
     Transform.Xform.apply g x c;
     check "LocalStorage (pack B tiles)"
   | [] -> Fmt.pr "(LocalStorage: no B candidate)@.");
  step "AccumulateTransient (C block)" Transform.Data_xforms.accumulate_transient;
  step "Vectorization (AVX2)"
    (Transform.Map_xforms.vectorization_width ~width:4);
  step "ReducePeeling" Transform.Control_xforms.reduce_peeling;
  let mkl =
    2. *. (2048. ** 3.) /. Baselines.mkl_gemm ~m:2048 ~n:2048 ~k:2048 () /. 1e9
  in
  Fmt.pr "@.Intel MKL model: %.1f GFlop/s;  final SDFG = %.1f%% of MKL \
          (paper: 98.6%%)@."
    mkl
    (100. *. gflops g /. mkl)
