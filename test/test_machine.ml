(* Machine-model tests: the cost engine must respond to program structure
   the way real hardware responds — tiling reduces traffic, parallelism
   reduces time, offloading adds copies, peeling removes atomics. *)

module E = Symbolic.Expr
module Cost = Machine.Cost
module Spec = Machine.Spec

let spec = Spec.paper_testbed
let mm_sizes = [ ("M", 1024); ("N", 1024); ("K", 1024) ]

let est ?(opts = Cost.default_options) ?(target = Cost.Tcpu)
    ?(symbols = mm_sizes) g =
  Cost.estimate ~opts ~spec ~target ~symbols g

let test_parallel_faster_than_sequential () =
  let g = Workloads.Kernels.matmul () in
  let par = (est g).Cost.r_time_s in
  let seq =
    (est ~opts:{ Cost.default_options with Cost.force_sequential = true } g)
      .Cost.r_time_s
  in
  Alcotest.(check bool)
    (Fmt.str "parallel %.3f < sequential %.3f" par seq)
    true (par < seq)

let test_tiling_reduces_traffic () =
  let untiled = Workloads.Kernels.matmul () in
  let before = (est untiled).Cost.r_acct.Cost.bytes in
  let tiled = Workloads.Kernels.matmul () in
  let x = Transform.Map_xforms.map_tiling_sized ~tile_sizes:[ 64 ] in
  let cand =
    x.Transform.Xform.x_find tiled
    |> List.find (fun c ->
           Sdfg_ir.State.label
             (Sdfg_ir.Sdfg.state tiled c.Transform.Xform.c_state)
           = "main")
  in
  Transform.Xform.apply tiled x cand;
  let after = (est tiled).Cost.r_acct.Cost.bytes in
  Alcotest.(check bool)
    (Fmt.str "tiled traffic %.3g < untiled %.3g" after before)
    true
    (after < before /. 4.)

let test_gpu_offload_pays_copies () =
  let g = Workloads.Kernels.matmul () in
  Fixtures.apply_first g Transform.Device_xforms.gpu_transform;
  let r = est ~target:Cost.Tgpu g in
  (* exactly A, B (in), C (in+out) at 8 MB each = 33.5 MB *)
  Alcotest.(check bool) "copy volume from propagated memlets" true
    (Float.abs (r.Cost.r_acct.Cost.copies -. (4. *. 1024. *. 1024. *. 8.))
     < 1e6)

let test_peeling_removes_atomics () =
  let g = Workloads.Kernels.histogram () in
  let symbols = [ ("H", 2048); ("W", 2048) ] in
  let before = (est ~symbols g).Cost.r_acct.Cost.atomics in
  Alcotest.(check bool) "histogram has conflicting commits" true (before > 0.);
  Fixtures.apply_first g Transform.Data_xforms.accumulate_transient;
  let after = (est ~symbols g).Cost.r_acct.Cost.atomics in
  Alcotest.(check bool) "privatization removes them" true (after = 0.)

let test_vectorization_speeds_compute () =
  let g = Fixtures.vector_add () in
  let symbols = [ ("N", 1 lsl 16) ] in
  let scalar = (est ~symbols g).Cost.r_compute_s in
  Fixtures.apply_first g
    (Transform.Map_xforms.vectorization_width ~width:4);
  let vec = (est ~symbols g).Cost.r_compute_s in
  Alcotest.(check bool)
    (Fmt.str "vector compute %.3g < scalar %.3g" vec scalar)
    true (vec < scalar)

let test_state_visit_counting () =
  (* the laplace time loop runs T times; flops must scale with T *)
  let flops t =
    (est
       ~symbols:[ ("N", 256); ("T", t) ]
       (Fixtures.laplace ()))
      .Cost.r_flops
  in
  let f10 = flops 10 and f40 = flops 40 in
  Alcotest.(check bool)
    (Fmt.str "flops scale with T (%.3g vs %.3g)" f10 f40)
    true
    (Float.abs ((f40 /. f10) -. 4.) < 0.2)

let test_triangular_visits () =
  (* cholesky work is ~N^3/3: per-visit evaluation with the loop symbol
     bound must give super-linear scaling in N *)
  let flops n =
    (est ~symbols:[ ("N", n) ]
       ((Workloads.Polybench.find "cholesky").Workloads.Polybench.k_build ()))
      .Cost.r_flops
  in
  let r = flops 256 /. flops 128 in
  Alcotest.(check bool) (Fmt.str "cholesky flops ratio %.2f ~ 8" r) true
    (r > 5. && r < 12.)

let test_indirection_classified_random () =
  let g = Workloads.Kernels.spmv () in
  let r =
    est
      ~opts:{ Cost.default_options with Cost.hints = [ ("row_dot", 64.) ] }
      ~symbols:[ ("H", 4096); ("W", 4096); ("nnz", 262144) ]
      g
  in
  Alcotest.(check bool) "x gathers are random-access" true
    (r.Cost.r_acct.Cost.rand_bytes > 0.);
  Alcotest.(check bool) "CSR scans stream" true
    (r.Cost.r_acct.Cost.bytes +. r.Cost.r_acct.Cost.dyn_bytes
     > r.Cost.r_acct.Cost.rand_bytes)

let test_fpga_pipelining () =
  let g = Fixtures.vector_add () in
  Fixtures.apply_first g Transform.Device_xforms.fpga_transform;
  let symbols = [ ("N", 1 lsl 20) ] in
  let pipelined = (est ~target:Cost.Tfpga ~symbols g).Cost.r_time_s in
  let naive =
    (est ~target:Cost.Tfpga ~symbols
       ~opts:{ Cost.default_options with Cost.naive_fpga = true }
       g)
      .Cost.r_time_s
  in
  Alcotest.(check bool)
    (Fmt.str "pipelined %.4f << naive HLS %.4f" pipelined naive)
    true
    (naive > 4. *. pipelined)

let test_baseline_ordering () =
  (* for an embarrassingly parallel compute-heavy kernel:
     SDFG (parallel) < ICC < GCC <= Clang *)
  let g () = Workloads.Kernels.matmul () in
  let t b = (Baselines.evaluate ~spec b ~symbols:mm_sizes (g ())).Cost.r_time_s in
  let sdfg = t Baselines.sdfg_cpu
  and gcc = t Baselines.gcc
  and clang = t Baselines.clang
  and icc = t Baselines.icc in
  Alcotest.(check bool) "SDFG fastest" true (sdfg < icc);
  Alcotest.(check bool) "icc <= gcc" true (icc <= gcc);
  Alcotest.(check bool) "gcc <= clang" true (gcc <= clang)

let test_report_consistency () =
  let r = est (Workloads.Kernels.matmul ()) in
  Alcotest.(check bool) "time >= max(compute, memory)" true
    (r.Cost.r_time_s >= Float.max r.Cost.r_compute_s r.Cost.r_memory_s);
  Alcotest.(check bool) "positive flops" true (r.Cost.r_flops > 0.)

(* A forked invocation pays [cal_chunk_s] per chunk its schedule deals:
   one static block per worker, or [min trips (4 * workers)] chunks from
   the dynamic cursor. *)
let test_parallel_chunk_charge () =
  let module P = Cost.Parallel in
  let cal =
    { P.default_calibration with
      P.cal_host_domains = 4; cal_fork_s = 0.; cal_chunk_s = 1e-6;
      cal_merge_s_per_elem = 0.; cal_efficiency = 1. }
  in
  let charge schedule ~trips =
    let t d =
      P.predicted_time_s ~cal ~schedule ~kind:(Some "copy") ~trips ~inner:1
        ~merge_elems:0 d
    in
    t 4 -. (t 1 /. 4.)
  in
  let check = Alcotest.(check (float 1e-12)) in
  check "static: one block per worker" 4e-6 (charge P.Static ~trips:1000);
  check "dynamic: four chunks per worker" 16e-6 (charge P.Dynamic ~trips:1000);
  check "dynamic: one chunk per trip below that" 6e-6
    (charge P.Dynamic ~trips:6)

let suite =
  [ ("parallel < sequential", `Quick, test_parallel_faster_than_sequential);
    ("parallel pricing charges the chunks each schedule deals", `Quick,
      test_parallel_chunk_charge);
    ("tiling cuts DRAM traffic", `Quick, test_tiling_reduces_traffic);
    ("GPU offload pays exact PCIe copies", `Quick, test_gpu_offload_pays_copies);
    ("privatization removes atomics", `Quick, test_peeling_removes_atomics);
    ("vectorization speeds compute", `Quick, test_vectorization_speeds_compute);
    ("state-machine visit counting", `Quick, test_state_visit_counting);
    ("triangular loop nests (cholesky)", `Quick, test_triangular_visits);
    ("indirection classified as random access", `Quick,
      test_indirection_classified_random);
    ("FPGA pipelining vs naive HLS", `Quick, test_fpga_pipelining);
    ("baseline compiler ordering", `Quick, test_baseline_ordering);
    ("report consistency", `Quick, test_report_consistency) ]
