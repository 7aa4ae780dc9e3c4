(* The paper's opening example (Fig. 2): a 1-D Laplace operator iterated
   T times through the state machine, then offloaded wholesale to the GPU
   with one transformation — without touching the "scientific code".

     dune exec examples/laplace.exe *)

module E = Symbolic.Expr
module S = Symbolic.Subset
module T = Tasklang.Types
open Sdfg_ir
open Builder

(* Fig. 2b, built with the builder API exactly as the Python frontend
   would emit it: A is [2, N]; step t reads row t%2, writes (t+1)%2. *)
let laplace () =
  let g = Sdfg.create ~symbols:[ "N"; "T" ] "laplace" in
  let n = E.sym "N" in
  Sdfg.add_array g "A" ~shape:[ E.int 2; n ] ~dtype:T.F64;
  let init = Sdfg.add_state g ~label:"init" () in
  let body = Sdfg.add_state g ~label:"laplace_step" () in
  let t = E.sym "t" and i = E.sym "i" in
  let cur = E.modulo t (E.int 2) in
  let nxt = E.modulo (E.add t E.one) (E.int 2) in
  ignore
    (Build.mapped_tasklet g body ~name:"laplace_op" ~params:[ "i" ]
       ~schedule:Defs.Cpu_multicore
       ~ranges:[ S.range E.one (E.sub n (E.int 2)) ]
       ~ins:
         [ Build.in_ "a" "A"
             [ S.index cur; S.range (E.sub i E.one) (E.add i E.one) ] ]
       ~outs:[ Build.out_ "o" "A" [ S.index nxt; S.index i ] ]
       ~code:(`Src "o = a[0] - 2.0 * a[1] + a[2]")
       ());
  Sdfg.set_start g (State.id init);
  ignore
    (Sdfg.add_transition g ~src:(State.id init) ~dst:(State.id body)
       ~assign:[ ("t", E.zero) ] ());
  ignore
    (Sdfg.add_transition g ~src:(State.id body) ~dst:(State.id body)
       ~cond:(Bexp.lt (E.add t E.one) (E.sym "T"))
       ~assign:[ ("t", E.add t E.one) ]
       ());
  Build.finalize g

let run g ~n ~t =
  let a =
    Interp.Tensor.init T.F64 [| 2; n |] (fun idx ->
        match idx with
        | [ 0; i ] -> T.F (sin (float_of_int i /. 3.))
        | _ -> T.F 0.)
  in
  ignore (Interp.Exec.run g ~symbols:[ ("N", n); ("T", t) ] ~args:[ ("A", a) ]);
  a

let () =
  let n = 24 and t = 8 in
  let g = laplace () in
  let a = run g ~n ~t in
  Fmt.pr "after %d steps, row %d:@.  %a@.@." t (t mod 2)
    Fmt.(list ~sep:sp (fmt "%+.3f"))
    (Interp.Tensor.to_float_list
       (Interp.Tensor.view a ~starts:[| t mod 2; 0 |] ~counts:[| 1; n |]
          ~steps:[| 1; 1 |]));

  (* the domain scientist's view never changes; the performance engineer
     offloads the whole program to the GPU with one transformation *)
  let gpu = laplace () in
  (match Transform.Xform.apply_first gpu Transform.Device_xforms.gpu_transform with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let a_gpu = run gpu ~n ~t in
  Fmt.pr "GPU-offloaded SDFG produces identical results: %b@.@."
    (Interp.Tensor.equal a a_gpu);

  (* show the generated CUDA, including the copy-in/copy-out states the
     transformation introduced *)
  Fmt.pr "--- generated CUDA (excerpt) ---@.";
  let cuda = Codegen.Gpu.generate gpu in
  String.split_on_char '\n' cuda
  |> List.filteri (fun i _ -> i < 40)
  |> List.iter (fun l -> Fmt.pr "%s@." l);
  Fmt.pr "  ...@.@.";

  (* modeled runtimes, CPU vs GPU, at the paper's problem scale *)
  let sizes = [ ("N", 1 lsl 22); ("T", 100) ] in
  let cpu_r =
    Machine.Cost.estimate ~spec:Machine.Spec.paper_testbed
      ~target:Machine.Cost.Tcpu ~symbols:sizes (laplace ())
  in
  let gpu_r =
    Machine.Cost.estimate ~spec:Machine.Spec.paper_testbed
      ~target:Machine.Cost.Tgpu ~symbols:sizes gpu
  in
  Fmt.pr "modeled: CPU %.4f s vs GPU %.4f s (N=2^22, T=100)@."
    cpu_r.Machine.Cost.r_time_s gpu_r.Machine.Cost.r_time_s
