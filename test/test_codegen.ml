(* Code generation tests: structural properties of the emitted CPU, CUDA
   and HLS sources (§4.3 step ❷). *)

module E = Symbolic.Expr

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

let count haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub haystack i nn = needle then go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  if nn = 0 then 0 else go 0 0

let has msg code needle =
  Alcotest.(check bool) (msg ^ ": " ^ needle) true (contains code needle)

let test_cpu_codegen () =
  let code = Codegen.Cpu.generate (Fixtures.vector_add ()) in
  has "cpu" code "extern \"C\" void sdfg_vadd";
  has "cpu" code "for (long long i = 0; i <= (-1) + N; i += 1)";
  has "cpu" code "const double a = A[i];";
  has "cpu" code "c = (a + b);";
  has "cpu" code "C[i] = c;";
  has "cpu" code "goto __state_";
  (* CPU_Multicore maps become OpenMP parallel-for loops (§3.3) *)
  let par = Codegen.Cpu.generate (Workloads.Kernels.matmul ()) in
  Alcotest.(check bool) "omp parallel for emitted" true
    (count par "#pragma omp parallel for" >= 2)

let test_cpu_wcr_atomic () =
  let code = Codegen.Cpu.generate (Workloads.Kernels.matmul ()) in
  has "wcr" code "#pragma omp atomic";
  has "wcr" code "+="

let test_cpu_state_machine () =
  let code = Codegen.Cpu.generate (Fixtures.laplace ()) in
  (* time loop becomes guarded gotos with the symbol assignment *)
  has "laplace" code "long long t = 0;";
  has "laplace" code "if ((1 + t < T))";
  has "laplace" code "t = 1 + t;";
  has "laplace" code "__exit:"

let test_gpu_codegen () =
  let g = Fixtures.matmul_wcr () in
  Fixtures.apply_first g Transform.Device_xforms.gpu_transform;
  let code = Codegen.Gpu.generate g in
  has "gpu" code "__global__ void mm_wcr_kernel";
  has "gpu" code "blockIdx.x * blockDim.x + threadIdx.x";
  has "gpu" code "cudaMemcpyAsync";
  has "gpu" code "cudaMemcpyHostToDevice";
  has "gpu" code "cudaMemcpyDeviceToHost";
  has "gpu" code "cudaMalloc";
  has "gpu" code "atomicAdd";
  has "gpu" code "<<<__grid, __block";
  has "gpu" code "cudaStreamSynchronize"

let test_fpga_codegen () =
  let g = Fixtures.vector_add () in
  Fixtures.apply_first g Transform.Device_xforms.fpga_transform;
  let code = Codegen.Fpga.generate g in
  has "fpga" code "#pragma HLS PIPELINE II=1";
  has "fpga" code "void vadd_module";
  has "fpga" code "#include <hls_stream.h>";
  has "fpga" code "memcpy_burst";
  Alcotest.(check bool) "resource report" true
    (contains (Codegen.Fpga.resource_report g) "modules=")

let test_fpga_streams () =
  (* stream containers become hls::stream FIFOs (§3.1) *)
  let g = Fixtures.fibonacci () in
  let code = Codegen.Fpga.generate g in
  has "fifo" code "hls::stream<long long> S";
  has "fifo" code "#pragma HLS STREAM variable=S"

let test_runtime_header () =
  let files =
    Codegen.generate Codegen.Target_cpu
      (Fixtures.vector_add ())
  in
  Alcotest.(check int) "two files" 2 (List.length files);
  let rt = List.assoc "sdfg_runtime.h" files in
  Alcotest.(check bool) "stream runtime" true (contains rt "struct stream")

let test_codegen_deterministic () =
  let gen () = Codegen.Cpu.generate (Fixtures.matmul_mapreduce ()) in
  Alcotest.(check string) "deterministic output" (gen ()) (gen ())

(* every Polybench kernel must produce code for all three targets *)
let test_polybench_all_targets () =
  List.iter
    (fun (k : Workloads.Polybench.kernel) ->
      let cpu = Codegen.Cpu.generate (k.k_build ()) in
      Alcotest.(check bool) (k.k_name ^ " cpu nonempty") true
        (String.length cpu > 200);
      let ggpu = k.k_build () in
      Fixtures.apply_first ggpu Transform.Device_xforms.gpu_transform;
      let gpu = Codegen.Gpu.generate ggpu in
      Alcotest.(check bool) (k.k_name ^ " has kernel") true
        (contains gpu "__global__");
      let gf = k.k_build () in
      Fixtures.apply_first gf Transform.Device_xforms.fpga_transform;
      let fpga = Codegen.Fpga.generate gf in
      Alcotest.(check bool) (k.k_name ^ " has module") true
        (contains fpga "#pragma HLS"))
    Workloads.Polybench.all

let suite =
  [ ("CPU: OpenMP loops + tasklet splicing", `Quick, test_cpu_codegen);
    ("CPU: WCR lowered to atomics", `Quick, test_cpu_wcr_atomic);
    ("CPU: state machine with gotos", `Quick, test_cpu_state_machine);
    ("GPU: kernels, copies, atomics", `Quick, test_gpu_codegen);
    ("FPGA: modules, pipelining, bursts", `Quick, test_fpga_codegen);
    ("FPGA: streams become FIFOs", `Quick, test_fpga_streams);
    ("runtime header emitted", `Quick, test_runtime_header);
    ("codegen is deterministic", `Quick, test_codegen_deterministic);
    ("all Polybench kernels, all targets", `Slow, test_polybench_all_targets) ]
