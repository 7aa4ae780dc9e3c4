(** Code-generation entry point (§4.3).

    [generate] runs the compilation pipeline on a validated SDFG: data
    dependency inference (step ❶: validation + memlet propagation), then
    target code emission (step ❷).  Step ❸ — invoking gcc/nvcc/SDAccel —
    is replaced in this reproduction by the machine model, which executes
    the scheduled SDFG on a simulated device (see DESIGN.md). *)

module Common = Common
module Cpu = Cpu
module Gpu = Gpu
module Fpga = Fpga

type target = Common.target = Target_cpu | Target_gpu | Target_fpga

val generate :
  ?validate:bool -> target -> Sdfg_ir.Sdfg.t -> (string * string) list
(** [(filename, contents)] pairs for the chosen target, always led by
    [sdfg_runtime.h].  Propagates memlets first; validates unless
    [~validate:false]. *)

val generate_string : ?validate:bool -> target -> Sdfg_ir.Sdfg.t -> string
(** All generated files concatenated with [// ===== name =====]
    separators — convenient for tests and the CLI. *)
